package collections

import "unsafe"

// The memory model is kept independent of the Go layout in two ways:
// element sizes come from ElemBytes rather than from the Go type's
// size alone, and growable arrays take their capacity from grownCap
// rather than from append, whose capacity the allocator rounds up to a
// size class that depends on the element's Go size. Together they keep
// every Bytes() fixed when a runtime representation changes.

// modeledSizer is implemented (on a pointer receiver that is never
// dereferenced) by element types whose modeled size differs from their
// Go size, such as the interpreter's runtime value.
type modeledSizer interface{ ModeledBytes() int64 }

// ElemBytes is the modeled size of one T element: ModeledBytes when T
// declares one, its Go size otherwise. It is exported for the
// interpreter's specialised hash tables, which charge their value
// arrays by the same rule.
func ElemBytes[T any]() int64 {
	var p *T
	if m, ok := any(p).(modeledSizer); ok {
		return m.ModeledBytes()
	}
	var zero T
	return int64(unsafe.Sizeof(zero))
}

// grownCap is the capacity a full array of capacity old grows to when
// it must hold need elements: Go's append growth before allocator
// rounding. need wins when it exceeds twice old; below 256 the
// capacity doubles; from 256 on it grows by (c+768)/4 until need fits.
func grownCap(old, need int) int {
	c := old
	if need > 2*c {
		return need
	}
	if c < 256 {
		return 2 * c
	}
	for c < need {
		c += (c + 768) / 4
	}
	return c
}

// grow returns s with room for need elements, reallocated to grownCap
// when its capacity is short.
func grow[T any](s []T, need int) []T {
	if need <= cap(s) {
		return s
	}
	w := make([]T, len(s), grownCap(cap(s), need))
	copy(w, s)
	return w
}
