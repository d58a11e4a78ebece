package collections

import (
	"encoding/binary"
	"math/bits"
)

// Swiss-table control machinery behind SwissMap (and SwissSet, a
// SwissMap with empty values).
//
// Each slot has a control byte: ctrlEmpty (0x80), ctrlTomb (0xFE), or
// the low 7 bits of the hash (H2) with the high bit clear. Probing
// scans groups of 8 control bytes at a time with SWAR word tricks, the
// portable equivalent of the SSE2 match in Abseil's implementation.
// The slot count is always a power of two and a multiple of the group
// size.

const (
	swissGroup       = 8
	ctrlEmpty  uint8 = 0x80
	ctrlTomb   uint8 = 0xFE
	swarLow          = 0x0101010101010101
	swarHigh         = 0x8080808080808080
)

func splitHash(h uint64) (h1 uint64, h2 uint8) {
	return h >> 7, uint8(h & 0x7f)
}

// matchByte returns a bitmask with bit 8*i+7 set for every byte i of
// group equal to b.
func matchByte(group uint64, b uint8) uint64 {
	x := group ^ (swarLow * uint64(b))
	return (x - swarLow) &^ x & swarHigh
}

// matchEmpty returns a mask of empty bytes.
func matchEmpty(group uint64) uint64 { return matchByte(group, ctrlEmpty) }

func loadGroup(ctrl []uint8, g int) uint64 {
	return binary.LittleEndian.Uint64(ctrl[g*swissGroup:])
}

// nextMatch consumes the lowest set match bit, returning the slot
// offset within the group.
func nextMatch(mask *uint64) int {
	i := bits.TrailingZeros64(*mask) / 8
	*mask &= *mask - 1
	return i
}

// probeSeq yields group indices in triangular-number order, which
// visits every group of a power-of-two table exactly once.
type probeSeq struct {
	mask, g, step uint64
}

func newProbeSeq(h1 uint64, groups int) probeSeq {
	m := uint64(groups - 1)
	return probeSeq{mask: m, g: h1 & m}
}

func (p *probeSeq) next() int {
	g := p.g
	p.step++
	p.g = (p.g + p.step) & p.mask
	return int(g)
}
