package container

import "testing"

// FuzzFromBytes hardens the archive parser: arbitrary input must either
// produce a valid archive or an error — never panic, never hang.
func FuzzFromBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x4C, 0x43, 0x4B, 0x50})
	a := multiBandArchiveForFuzz()
	if raw, err := a.Bytes(); err == nil {
		f.Add(raw)
		// A few systematic corruptions as seeds.
		for _, pos := range []int{0, 8, len(raw) / 2, len(raw) - 2} {
			mut := append([]byte(nil), raw...)
			mut[pos] ^= 0xFF
			f.Add(mut)
		}
		f.Add(raw[:len(raw)/2])
		// Both format versions, and float-section counts no writer makes.
		v1 := referenceBytes(a, versionV1)
		f.Add(v1)
		for _, forged := range append(forgedLowCounts(raw, len(a.Shape)), forgedLowCounts(v1, len(a.Shape))...) {
			f.Add(forged)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		arch, err := FromBytes(data)
		if err == nil && arch == nil {
			t.Fatal("nil archive without error")
		}
		if err == nil {
			// A successfully parsed archive must re-serialize.
			if _, rerr := arch.Bytes(); rerr != nil {
				t.Fatalf("parsed archive does not re-serialize: %v", rerr)
			}
		}
	})
}

func multiBandArchiveForFuzz() *Archive {
	// Reuse the test helper via a tiny shim (fuzz functions cannot take
	// *testing.T helpers directly).
	t := &testing.T{}
	return multiBandArchive(t, 99, 2)
}
