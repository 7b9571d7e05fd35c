package core

import "hash/crc32"

// castagnoli is the CRC-32C table WAL snapshots are checksummed with.
// Every binReader hashes the image bytes it consumes with it, so a
// loader handed a checked input (see checkedInput) can prove that the
// store it built came from the bytes the checksum covers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32Combine returns the CRC-32C of a‖b from crcA, the CRC-32C of a,
// crcB, that of b, and b's length, as zlib's crc32_combine does:
// appending b's length of zero bytes to a multiplies crcA by x^(8·lenB)
// modulo the polynomial, and the CRC of a‖b is that product xor crcB.
// The shards of a container image, decoded in parallel, each hash their
// own section; the loader folds the sums together in image order.
func crc32Combine(crcA, crcB uint32, lenB int64) uint32 {
	return multModP(xPow8n(lenB), crcA) ^ crcB
}

// multModP returns a·b modulo the CRC-32C polynomial, both in the
// reflected bit order of the table (bit 31 holds x^0).
func multModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}

// xPow8n returns x^(8n) modulo the polynomial: starting from x^0, it
// multiplies in x^8, x^16, x^32, … for the bits set in n.
func xPow8n(n int64) uint32 {
	p := uint32(1) << 31
	for x := uint32(1) << 23; n > 0; n >>= 1 {
		if n&1 != 0 {
			p = multModP(x, p)
		}
		x = multModP(x, x)
	}
	return p
}
