// Package grid provides the N-dimensional double-precision field abstraction
// that every other package in this repository builds on.
//
// A Field is a dense, row-major (C-order) array of float64 values together
// with its shape. Scientific checkpoint data in the reproduced paper
// (Sasaki et al., IPDPS 2015) consists of 1D/2D/3D arrays of physical
// quantities such as pressure, temperature and wind velocity; Field models
// exactly that: a flat backing slice plus shape/stride bookkeeping, a compact
// binary serialization used by the checkpoint container, and the pool the
// pipeline's field-sized scratch comes from.
package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// MaxDims is the largest number of dimensions a Field may have. The paper
// only exercises 1D–3D arrays; we allow a little headroom.
const MaxDims = 8

// Errors returned by this package.
var (
	// ErrShape indicates an invalid shape (empty, a non-positive extent, or
	// too many dimensions).
	ErrShape = errors.New("grid: invalid shape")
	// ErrSize indicates that a provided backing slice does not match the
	// number of elements implied by the shape.
	ErrSize = errors.New("grid: data length does not match shape")
	// ErrFormat indicates malformed serialized field data.
	ErrFormat = errors.New("grid: malformed serialized field")
)

// Field is a dense N-dimensional array of float64 in row-major order.
// The zero value is not usable; construct Fields with New or FromSlice.
type Field struct {
	shape  []int
	stride []int
	data   []float64
}

// New allocates a zero-filled Field with the given shape.
func New(shape ...int) (*Field, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	f := &Field{
		shape: append([]int(nil), shape...),
		data:  make([]float64, n),
	}
	f.stride = strides(f.shape)
	return f, nil
}

// MustNew is New but panics on error. Intended for tests and for literals
// with compile-time-constant shapes.
func MustNew(shape ...int) *Field {
	f, err := New(shape...)
	if err != nil {
		panic(err)
	}
	return f
}

// FromSlice wraps an existing backing slice in a Field without copying.
// The slice length must equal the product of the shape extents.
func FromSlice(data []float64, shape ...int) (*Field, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("%w: have %d elements, shape %v needs %d", ErrSize, len(data), shape, n)
	}
	f := &Field{
		shape: append([]int(nil), shape...),
		data:  data,
	}
	f.stride = strides(f.shape)
	return f, nil
}

// Elems returns how many elements an array of the given shape holds, vetting
// the shape as New does and allocating nothing: what a decoder compares a
// payload's length with before it sizes anything by a shape it was handed.
func Elems(shape ...int) (int, error) { return checkShape(shape) }

// Dest returns the field a decoder reconstructs an array of the given shape
// in: into, when the caller supplied one — it must have exactly that shape,
// else the error is ErrShape and into is left alone — or a new zero-filled
// field.
func Dest(into *Field, shape ...int) (*Field, error) {
	if into == nil {
		return New(shape...)
	}
	if !slices.Equal(into.shape, shape) {
		return nil, fmt.Errorf("%w: destination is %v, decoded array is %v", ErrShape, into.shape, shape)
	}
	return into, nil
}

func checkShape(shape []int) (int, error) {
	if len(shape) == 0 || len(shape) > MaxDims {
		return 0, fmt.Errorf("%w: %v", ErrShape, shape)
	}
	n := 1
	for _, s := range shape {
		if s <= 0 {
			return 0, fmt.Errorf("%w: extent %d in %v", ErrShape, s, shape)
		}
		if n > math.MaxInt/s {
			return 0, fmt.Errorf("%w: %v overflows", ErrShape, shape)
		}
		n *= s
	}
	return n, nil
}

func strides(shape []int) []int {
	st := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= shape[i]
	}
	return st
}

// Named couples an array with its variable name: the unit a workload
// exposes, a checkpoint manager registers and the daemon's wire carries.
type Named struct {
	Name  string
	Field *Field
}

// Dims returns the number of dimensions.
func (f *Field) Dims() int { return len(f.shape) }

// Shape returns a copy of the field's shape.
func (f *Field) Shape() []int { return append([]int(nil), f.shape...) }

// Extent returns the size of dimension d.
func (f *Field) Extent(d int) int { return f.shape[d] }

// Stride returns the row-major stride (in elements) of dimension d.
func (f *Field) Stride(d int) int { return f.stride[d] }

// Len returns the total number of elements.
func (f *Field) Len() int { return len(f.data) }

// Data returns the backing slice (not a copy). Mutating it mutates the field.
func (f *Field) Data() []float64 { return f.data }

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	g := &Field{
		shape:  append([]int(nil), f.shape...),
		stride: append([]int(nil), f.stride...),
		data:   append([]float64(nil), f.data...),
	}
	return g
}

// SameShape reports whether f and g have identical shapes.
func (f *Field) SameShape(g *Field) bool {
	if len(f.shape) != len(g.shape) {
		return false
	}
	for i := range f.shape {
		if f.shape[i] != g.shape[i] {
			return false
		}
	}
	return true
}

// Offset converts a multi-dimensional index to a flat offset.
// It panics if the number of indexes differs from the number of dimensions
// or any index is out of range, matching built-in slice behaviour.
func (f *Field) Offset(idx ...int) int {
	if len(idx) != len(f.shape) {
		panic(fmt.Sprintf("grid: %d indexes for %d-D field", len(idx), len(f.shape)))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= f.shape[d] {
			panic(fmt.Sprintf("grid: index %d out of range [0,%d) in dim %d", i, f.shape[d], d))
		}
		off += i * f.stride[d]
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (f *Field) At(idx ...int) float64 { return f.data[f.Offset(idx...)] }

// Set assigns the element at the given multi-dimensional index.
func (f *Field) Set(v float64, idx ...int) { f.data[f.Offset(idx...)] = v }

// Fill sets every element to v.
func (f *Field) Fill(v float64) {
	for i := range f.data {
		f.data[i] = v
	}
}

// Apply replaces every element x with fn(x).
func (f *Field) Apply(fn func(float64) float64) {
	for i, v := range f.data {
		f.data[i] = fn(v)
	}
}

// MinMax returns the minimum and maximum element values. NaNs are ignored;
// if every element is NaN both results are NaN.
func (f *Field) MinMax() (min, max float64) {
	min, max = math.NaN(), math.NaN()
	for _, v := range f.data {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(min) || v < min {
			min = v
		}
		if math.IsNaN(max) || v > max {
			max = v
		}
	}
	return min, max
}

// Sum returns the sum of all elements using Neumaier compensated summation,
// which keeps conservation checks in the application substrates meaningful
// even when individual addends dwarf the running sum.
func (f *Field) Sum() float64 {
	var sum, c float64
	for _, v := range f.data {
		t := sum + v
		if math.Abs(sum) >= math.Abs(v) {
			c += (sum - t) + v
		} else {
			c += (v - t) + sum
		}
		sum = t
	}
	return sum + c
}

// Equal reports whether f and g have the same shape and bit-identical data
// (NaNs compare equal to NaNs of any payload).
func (f *Field) Equal(g *Field) bool {
	if !f.SameShape(g) {
		return false
	}
	for i, v := range f.data {
		w := g.data[i]
		if v != w && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a compact summary.
func (f *Field) String() string {
	min, max := f.MinMax()
	return fmt.Sprintf("Field%v[%d elems, min=%g max=%g]", f.shape, len(f.data), min, max)
}

// Bytes returns the number of bytes the raw (uncompressed) field data
// occupies: 8 bytes per element.
func (f *Field) Bytes() int { return 8 * len(f.data) }

// littleEndian: the host lays a float64 out the way the streams do.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// FloatBytes is the little-endian byte image of fs — the bytes every stream
// and fingerprint in this repository defines a float64 array by — to be read
// only: on a little-endian host the slice's own memory, elsewhere a copy.
func FloatBytes(fs []float64) []byte {
	if len(fs) == 0 {
		return nil
	}
	if littleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&fs[0])), 8*len(fs))
	}
	out := make([]byte, 8*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

// PutFloatBytes is the inverse: it fills dst from its little-endian byte
// image b, which must hold 8*len(dst) bytes.
func PutFloatBytes(dst []float64, b []byte) {
	if littleEndian {
		copy(FloatBytes(dst), b[:8*len(dst)])
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Lanes transposes the n = len(src)/stride words of src into stride byte lanes
// in dst, len(src) long: lane k, dst[k*n:(k+1)*n], holds byte k of every word.
// Stride 8 (a float64 image: the raw-array codecs' shuffle and container format
// 2's float sections) moves eight words per step, others go byte by byte.
func Lanes(dst, src []byte, stride int) { transposeLanes(dst, src, stride, true) }

// Unlanes inverts Lanes.
func Unlanes(dst, src []byte, stride int) { transposeLanes(dst, src, stride, false) }

// PutLanes fills dst from lanes, the stride-8 Lanes of its little-endian
// byte image, which must hold 8*len(dst) bytes.
func PutLanes(dst []float64, lanes []byte) {
	b := FloatBytes(dst) // dst's own memory on a little-endian host
	Unlanes(b, lanes[:len(b)], 8)
	if !littleEndian {
		PutFloatBytes(dst, b)
	}
}

// transposeLanes moves words between the two layouts. At stride 8 a block's
// words are reached by pointer, inside the slices by the loop bound: indexing
// cost sixteen bounds checks per 64 bytes and half the speed.
func transposeLanes(dst, src []byte, stride int, toLanes bool) {
	if stride < 1 || len(src)%stride != 0 || len(dst) != len(src) {
		panic(fmt.Sprintf("grid: lanes of %d bytes at stride %d into %d", len(src), stride, len(dst)))
	}
	n, i := len(src)/stride, 0
	if stride == 8 && n >= 8 {
		// Word r of the block at value i is at src[i*sa+r*sr], lane word k at dst[i*da+k*dr].
		sa, sr, da, dr := 8, 8, 1, n
		if !toLanes {
			sa, sr, da, dr = 1, n, 8, 8
		}
		sp, dp := unsafe.Pointer(&src[0]), unsafe.Pointer(&dst[0])
		at := func(p unsafe.Pointer, off int) []byte { return (*[8]byte)(unsafe.Add(p, off))[:] }
		le := binary.LittleEndian
		for ; i+8 <= n; i += 8 {
			s, d := i*sa, i*da
			w0, w1, w2, w3, w4, w5, w6, w7 := transpose8(le.Uint64(at(sp, s)), le.Uint64(at(sp, s+sr)), le.Uint64(at(sp, s+2*sr)),
				le.Uint64(at(sp, s+3*sr)), le.Uint64(at(sp, s+4*sr)), le.Uint64(at(sp, s+5*sr)), le.Uint64(at(sp, s+6*sr)), le.Uint64(at(sp, s+7*sr)))
			le.PutUint64(at(dp, d), w0)
			le.PutUint64(at(dp, d+dr), w1)
			le.PutUint64(at(dp, d+2*dr), w2)
			le.PutUint64(at(dp, d+3*dr), w3)
			le.PutUint64(at(dp, d+4*dr), w4)
			le.PutUint64(at(dp, d+5*dr), w5)
			le.PutUint64(at(dp, d+6*dr), w6)
			le.PutUint64(at(dp, d+7*dr), w7)
		}
	}
	for ; i < n; i++ {
		for k := 0; k < stride; k++ {
			if word, lane := i*stride+k, k*n+i; toLanes {
				dst[lane] = src[word]
			} else {
				dst[word] = src[lane]
			}
		}
	}
}

// transpose8 transposes the 8×8 byte matrix whose rows are w0…w7 (byte 0 the
// least significant) in three mask-and-shift stages: swap bytes between row
// pairs, then 16-bit pairs, then 32-bit halves. Inlined, it ran slower.
func transpose8(w0, w1, w2, w3, w4, w5, w6, w7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	const m1, m2, m3 = 0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff
	t0, t1, t2, t3 := (w0>>8^w1)&m1, (w2>>8^w3)&m1, (w4>>8^w5)&m1, (w6>>8^w7)&m1
	w0, w1, w2, w3, w4, w5, w6, w7 = w0^t0<<8, w1^t0, w2^t1<<8, w3^t1, w4^t2<<8, w5^t2, w6^t3<<8, w7^t3
	t0, t1, t2, t3 = (w0>>16^w2)&m2, (w1>>16^w3)&m2, (w4>>16^w6)&m2, (w5>>16^w7)&m2
	w0, w2, w1, w3, w4, w6, w5, w7 = w0^t0<<16, w2^t0, w1^t1<<16, w3^t1, w4^t2<<16, w6^t2, w5^t3<<16, w7^t3
	t0, t1, t2, t3 = (w0>>32^w4)&m3, (w1>>32^w5)&m3, (w2>>32^w6)&m3, (w3>>32^w7)&m3
	return w0 ^ t0<<32, w1 ^ t1<<32, w2 ^ t2<<32, w3 ^ t3<<32, w4 ^ t0, w5 ^ t1, w6 ^ t2, w7 ^ t3
}

// FingerprintKey is the pair of seeds a delta cache compares arrays under: its
// Sum is two hash/maphash sums of the array's byte image (FloatBytes), read
// where it lies. A changed array is taken for the one cached only if both
// sums collide, and the two seeds are drawn independently of each other and
// of the data (NewFingerprintKey, whenever a cache is built), so that is
// about 2⁻⁶⁴ per seed and 2⁻¹²⁸ per comparison. A fingerprint never leaves
// the process and is never stored, so it needs no collision resistance
// against an adversary; what names bytes on disk is SHA-256 (internal/cas).
type FingerprintKey [2]maphash.Seed

// NewFingerprintKey draws two fresh seeds.
func NewFingerprintKey() FingerprintKey {
	return FingerprintKey{maphash.MakeSeed(), maphash.MakeSeed()}
}

// Sum is fs's 128-bit fingerprint under k.
func (k FingerprintKey) Sum(fs []float64) [2]uint64 {
	b := FloatBytes(fs)
	return [2]uint64{maphash.Bytes(k[0], b), maphash.Bytes(k[1], b)}
}

// Scratch is a pooled float64 buffer for the field-sized temporaries of the
// compression hot path: the transformed copy of an array, the wavelet passes'
// second buffer, the gathered band pools. All are dead once a stream (or a
// reconstructed field) exists, and checkpointing asks for the same few sizes
// every interval. The slice sits behind a pointer so that Put does not allocate.
type Scratch struct{ S []float64 }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled buffer with len(S) == n, contents unspecified.
func GetScratch(n int) *Scratch {
	b := scratchPool.Get().(*Scratch)
	if cap(b.S) < n {
		b.S = make([]float64, n)
	}
	b.S = b.S[:n]
	return b
}

// Put hands the buffer back; the caller must not touch S afterwards.
func (b *Scratch) Put() { scratchPool.Put(b) }

// --- Serialization -----------------------------------------------------
//
// Layout (little-endian):
//   uint32 magic "GRDF"
//   uint16 version (1)
//   uint16 ndims
//   int64  extent × ndims
//   float64 data × prod(extents)

const (
	fieldMagic   = 0x46445247 // "GRDF"
	fieldVersion = 1
)

// WriteTo serializes the field. It implements io.WriterTo.
func (f *Field) WriteTo(w io.Writer) (int64, error) {
	var n int64
	hdr := make([]byte, 8+8*len(f.shape))
	binary.LittleEndian.PutUint32(hdr[0:], fieldMagic)
	binary.LittleEndian.PutUint16(hdr[4:], fieldVersion)
	binary.LittleEndian.PutUint16(hdr[6:], uint16(len(f.shape)))
	for d, s := range f.shape {
		binary.LittleEndian.PutUint64(hdr[8+8*d:], uint64(s))
	}
	k, err := w.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 8*4096)
	for i := 0; i < len(f.data); {
		m := len(f.data) - i
		if m > 4096 {
			m = 4096
		}
		for j := 0; j < m; j++ {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(f.data[i+j]))
		}
		k, err = w.Write(buf[:8*m])
		n += int64(k)
		if err != nil {
			return n, err
		}
		i += m
	}
	return n, nil
}

// ReadField deserializes a field written by WriteTo.
func ReadField(r io.Reader) (*Field, error) {
	var fixed [8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	if binary.LittleEndian.Uint32(fixed[0:]) != fieldMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint16(fixed[4:]); v != fieldVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	nd := int(binary.LittleEndian.Uint16(fixed[6:]))
	if nd == 0 || nd > MaxDims {
		return nil, fmt.Errorf("%w: ndims %d", ErrFormat, nd)
	}
	shape := make([]int, nd)
	ext := make([]byte, 8*nd)
	if _, err := io.ReadFull(r, ext); err != nil {
		return nil, fmt.Errorf("%w: extents: %v", ErrFormat, err)
	}
	for d := range shape {
		e := binary.LittleEndian.Uint64(ext[8*d:])
		if e == 0 || e > math.MaxInt32 {
			return nil, fmt.Errorf("%w: extent %d", ErrFormat, e)
		}
		shape[d] = int(e)
	}
	f, err := New(shape...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	buf := make([]byte, 8*4096)
	for i := 0; i < len(f.data); {
		m := len(f.data) - i
		if m > 4096 {
			m = 4096
		}
		if _, err := io.ReadFull(r, buf[:8*m]); err != nil {
			return nil, fmt.Errorf("%w: data: %v", ErrFormat, err)
		}
		for j := 0; j < m; j++ {
			f.data[i+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		i += m
	}
	return f, nil
}
