package bitpack

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetCount(t *testing.T) {
	m := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if m.Get(i) {
			t.Fatalf("fresh bitmap has bit %d set", i)
		}
		m.Set(i, true)
		if !m.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := m.Count(); got != 8 {
		t.Errorf("Count = %d, want 8", got)
	}
	m.Set(63, false)
	if m.Get(63) || m.Count() != 7 {
		t.Error("clearing bit 63 failed")
	}
}

func TestPanicsOutOfRange(t *testing.T) {
	m := New(10)
	for _, i := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			m.Get(i)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", i)
				}
			}()
			m.Set(i, true)
		}()
	}
}

func TestFromBoolsBoolsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		b := make([]bool, n)
		for i := range b {
			b[i] = rng.Intn(2) == 0
		}
		m := FromBools(b)
		out := m.Bools()
		if len(out) != n {
			t.Fatalf("n=%d: Bools len %d", n, len(out))
		}
		for i := range b {
			if b[i] != out[i] {
				t.Fatalf("n=%d: bit %d mismatch", n, i)
			}
		}
	}
}

func TestAllTrue(t *testing.T) {
	m := New(65)
	if m.AllTrue() {
		t.Error("zero bitmap reported AllTrue")
	}
	for i := 0; i < 65; i++ {
		m.Set(i, true)
	}
	if !m.AllTrue() {
		t.Error("full bitmap not AllTrue")
	}
	if !New(0).AllTrue() {
		t.Error("empty bitmap should be AllTrue")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := [][]bool{
		nil,
		{true},
		{false},
		make([]bool, 64),  // all false
		make([]bool, 200), // all false, multi-word
	}
	allTrue := make([]bool, 200)
	for i := range allTrue {
		allTrue[i] = true
	}
	cases = append(cases, allTrue)
	mixed := make([]bool, 777)
	for i := range mixed {
		mixed[i] = rng.Intn(3) == 0
	}
	cases = append(cases, mixed)
	for ci, b := range cases {
		m := FromBools(b)
		var buf bytes.Buffer
		n, err := m.WriteTo(&buf)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if int(n) != buf.Len() {
			t.Errorf("case %d: WriteTo returned %d, wrote %d", ci, n, buf.Len())
		}
		if int(n) != m.SerializedSize() {
			t.Errorf("case %d: SerializedSize = %d, actual %d", ci, m.SerializedSize(), n)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("case %d: Read: %v", ci, err)
		}
		if !m.Equal(got) {
			t.Errorf("case %d: round trip mismatch", ci)
		}
	}
}

func TestCompactFlagsSaveSpace(t *testing.T) {
	// All-true and all-false bitmaps serialize to the 9-byte header only.
	full := New(100000)
	for i := 0; i < 100000; i++ {
		full.Set(i, true)
	}
	if full.SerializedSize() != 9 {
		t.Errorf("all-true size = %d, want 9", full.SerializedSize())
	}
	if New(100000).SerializedSize() != 9 {
		t.Error("all-false not compact")
	}
	half := New(100000)
	half.Set(5, true)
	if half.SerializedSize() <= 9 {
		t.Error("mixed bitmap should be larger than header")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("truncated header: expected error")
	}
	// Bad flag.
	bad := make([]byte, 9)
	bad[8] = 7
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("unknown flag: expected error")
	}
	// Truncated payload.
	m := FromBools([]bool{true, false, true})
	var buf bytes.Buffer
	_, _ = m.WriteTo(&buf)
	if _, err := Read(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Error("truncated payload: expected error")
	}
	// Implausible size.
	huge := make([]byte, 9)
	huge[7] = 0xFF // 2^56-ish bit count
	if _, err := Read(bytes.NewReader(huge)); err == nil {
		t.Error("implausible size: expected error")
	}
}

// Property: FromBools/Bools and serialization round trips are identities.
func TestQuickRoundTrips(t *testing.T) {
	fn := func(b []bool) bool {
		m := FromBools(b)
		if m.Len() != len(b) {
			return false
		}
		out := m.Bools()
		for i := range b {
			if b[i] != out[i] {
				return false
			}
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return m.Equal(got) && got.Count() == m.Count()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FromBools packs a []bool into a Bitmap one Set at a time: the reference
// the word-level constructors are held to.
func FromBools(b []bool) *Bitmap {
	m := New(len(b))
	for i, v := range b {
		if v {
			m.Set(i, true)
		}
	}
	return m
}

// Bools unpacks the bitmap into a []bool.
func (m *Bitmap) Bools() []bool {
	out := make([]bool, m.n)
	for i := range out {
		out[i] = m.Get(i)
	}
	return out
}

// TestFromWordsMatchesSets: wrapping words is the bitmap a Set per bit builds,
// stray bits beyond the length are dropped, and AppendTo writes WriteTo's
// bytes after whatever dst held — every tail length, all three flags.
func TestFromWordsMatchesSets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 130; n++ {
		for _, fill := range []string{"random", "ones", "zeros"} {
			b := make([]bool, n)
			words := make([]uint64, (n+63)/64)
			for i := range b {
				b[i] = fill == "ones" || (fill == "random" && rng.Intn(2) == 0)
				if b[i] {
					words[i/64] |= 1 << (i % 64)
				}
			}
			if n%64 != 0 {
				words[len(words)-1] |= ^uint64(0) << (n % 64) // stray tail bits
			}
			want := FromBools(b)
			got := FromWords(n, words)
			if !got.Equal(want) || got.Count() != want.Count() || got.Len() != n {
				t.Fatalf("n=%d %s: FromWords differs from the bit-by-bit bitmap", n, fill)
			}
			for i, w := range got.Words() {
				if w != want.words[i] {
					t.Fatalf("n=%d %s: word %d = %#x, want %#x", n, fill, i, w, want.words[i])
				}
			}
			var buf bytes.Buffer
			if _, err := want.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			out := got.AppendTo([]byte("xy"))
			if string(out[:2]) != "xy" || !bytes.Equal(out[2:], buf.Bytes()) || len(out)-2 != got.SerializedSize() {
				t.Fatalf("n=%d %s: AppendTo wrote %x, WriteTo %x", n, fill, out[2:], buf.Bytes())
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("FromWords with a wrong word count did not panic")
		}
	}()
	FromWords(65, make([]uint64, 1))
}
