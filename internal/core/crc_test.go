package core

import (
	"hash/crc32"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestCRC32Combine: folding the checksums of consecutive parts gives
// hash/crc32's checksum of the whole, for random splits that include
// empty parts, and when the first part continues a seed, as a
// snapshot's payload continues its header's checksum.
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.IntN(len(data) + 1)
		whole := data[:n]
		seed := uint32(0)
		if trial%2 == 1 {
			seed = rng.Uint32()
		}
		// Up to 8 cut points, repeats allowed, so parts may be empty.
		cuts := []int{0}
		for range rng.IntN(8) {
			cuts = append(cuts, rng.IntN(n+1))
		}
		cuts = append(cuts, n)
		slices.Sort(cuts)
		sum := seed
		for i := 1; i < len(cuts); i++ {
			part := whole[cuts[i-1]:cuts[i]]
			sum = crc32Combine(sum, crc32.Checksum(part, castagnoli), int64(len(part)))
		}
		if want := crc32.Update(seed, castagnoli, whole); sum != want {
			t.Fatalf("trial %d: %d bytes cut at %v: combined %#x, want %#x", trial, n, cuts, sum, want)
		}
	}
}
