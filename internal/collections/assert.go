package collections

// Compile-time checks that every implementation satisfies the shared
// interfaces.
var (
	_ Set[uint64]         = (*SwissSet[uint64])(nil)
	_ Set[uint64]         = (*FlatSet[uint64])(nil)
	_ Set[uint32]         = (*BitSet)(nil)
	_ Set[uint32]         = (*SparseBitSet)(nil)
	_ Map[uint64, uint64] = (*HashMap[uint64, uint64])(nil)
	_ Map[uint64, uint64] = (*SwissMap[uint64, uint64])(nil)
	_ Map[uint32, uint64] = (*BitMap[uint64])(nil)
)
