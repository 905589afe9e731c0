// Package isal implements the optimized software kernels the paper uses as
// CPU baselines (named after Intel ISA-L, the library the authors benchmark
// against, §4.1). Kernels are pure functions over byte slices; both the
// simulated CPU baseline and the DSA device model call them so that hardware
// and software results are bit-identical and verifiable against each other.
// Where the standard library has a bit-identical kernel (CRC-32 through
// hash/crc32) isal wraps it instead of carrying its own; the tests keep a
// bit-at-a-time oracle for it.
package isal

import "hash/crc32"

// CRC32 computes the CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// of p seeded with seed, the CRC the DSA CRC Generation operation produces.
// A seed of 0 computes the standard checksum; passing a previous return
// value continues it. The kernel is hash/crc32's (carry-less multiply
// where the CPU has it, slicing-by-8 otherwise).
func CRC32(seed uint32, p []byte) uint32 {
	return crc32.Update(seed, crc32.IEEETable, p)
}

// CRC-16 T10-DIF (polynomial 0x8BB7, no reflection, zero init/xorout), the
// guard-tag CRC used by the DIF operations (Table 1).

const crc16Poly = 0x8BB7

var crc16Table = buildCRC16Table()

func buildCRC16Table() *[256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for j := 0; j < 8; j++ {
			if crc&0x8000 != 0 {
				crc = (crc << 1) ^ crc16Poly
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return &t
}

// CRC16T10DIF computes the T10-DIF guard CRC of p seeded with seed.
func CRC16T10DIF(seed uint16, p []byte) uint16 {
	crc := seed
	for _, b := range p {
		crc = crc16Table[byte(crc>>8)^b] ^ (crc << 8)
	}
	return crc
}
