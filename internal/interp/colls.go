package interp

import (
	"memoir/internal/collections"
	"memoir/internal/ir"
)

// Coll is a runtime collection handle. SSA redefinitions of a
// collection all alias one handle; the interpreter mutates it in
// place, which is sound because MEMOIR's collection SSA gives each
// state a single forward use chain.
//
// The frequent implementations are exported concrete types (RSetHash,
// RSetBits, RSetSparse, RMapHash, RMapBit, RSeqArr) so the bytecode
// VM can devirtualize its hot collection opcodes with a type switch;
// rarer implementations stay behind the generic rsetG/rmapG wrappers.
// Sequences have one implementation, so RSeqArr is the sequence type:
// there is no sequence interface beside it.
//
// RSeqArr, RMapBit, RMapHash and RSetHash each hold the storage for
// both element representations and use the one NewCollFor picked from
// the IR type: scalar payloads as unboxed Words, with the kind kept
// once per collection, or boxed Vals. Their methods take and return
// Vals either way, so the Val↔Word conversion stays in this package
// and no caller can tell the representations apart.
type Coll interface {
	CollKind() ir.CollKind
	Impl() collections.Impl
	ElemType() ir.Type
	Len() int
	Bytes() int64
	Clear()
}

// RSet is a runtime set.
type RSet interface {
	Coll
	Has(Val) bool
	Insert(Val) bool
	Remove(Val) bool
	Iterate(func(Val) bool)
}

// RMap is a runtime map.
type RMap interface {
	Coll
	Get(Val) (Val, bool)
	Put(Val, Val)
	HasKey(Val) bool
	Remove(Val) bool
	Iterate(func(k, v Val) bool)
}

// --- HashSet-backed set ---

// RSetHash is the Set{HashSet} runtime set: a collections.HashMap
// over Words with struct{} values when the key type is an integer
// kind, a ValMap[struct{}] otherwise (see NewCollFor).
type RSetHash struct {
	vs    ValMap[struct{}]
	ws    collections.HashMap[Word, struct{}]
	words bool // keys live in ws
	t     *ir.CollType
}

func (r *RSetHash) CollKind() ir.CollKind  { return ir.KSet }
func (r *RSetHash) Impl() collections.Impl { return collections.ImplHashSet }
func (r *RSetHash) ElemType() ir.Type      { return r.t.Key }

func (r *RSetHash) Len() int {
	if r.words {
		return r.ws.Len()
	}
	return r.vs.Len()
}

func (r *RSetHash) Bytes() int64 {
	if r.words {
		return r.ws.Bytes()
	}
	return r.vs.Bytes()
}

func (r *RSetHash) Clear() {
	if r.words {
		r.ws.Clear()
		return
	}
	r.vs.Clear()
}

func (r *RSetHash) Has(k Val) bool {
	if r.words {
		return r.ws.Has(k.word())
	}
	return r.vs.Has(k)
}

func (r *RSetHash) Insert(k Val) bool {
	if r.words {
		return r.ws.Put(k.word(), struct{}{})
	}
	return r.vs.Put(canonKey(k), struct{}{})
}

func (r *RSetHash) Remove(k Val) bool {
	if r.words {
		return r.ws.Remove(k.word())
	}
	return r.vs.Remove(k)
}

func (r *RSetHash) Iterate(f func(Val) bool) {
	if r.words {
		r.ws.Iterate(func(k Word, _ struct{}) bool { return f(k.Val(VInt)) })
		return
	}
	r.vs.Iterate(func(k Val, _ struct{}) bool { return f(k) })
}

// States exposes the slot-state array for the VM's inlined iteration;
// see (*ValMap).States.
func (r *RSetHash) States() []uint8 {
	if r.words {
		return r.ws.States()
	}
	return r.vs.States()
}

// SlotAt returns the element in slot i, which must be SlotFull.
func (r *RSetHash) SlotAt(i int) Val {
	if r.words {
		k, _ := r.ws.SlotAt(i)
		return k.Val(VInt)
	}
	k, _ := r.vs.SlotAt(i)
	return k
}

// --- generic (sparse-keyed) set: Swiss or Flat ---

type rsetG struct {
	s collections.Set[Val]
	t *ir.CollType
}

func (r *rsetG) CollKind() ir.CollKind    { return ir.KSet }
func (r *rsetG) Impl() collections.Impl   { return r.s.Kind() }
func (r *rsetG) ElemType() ir.Type        { return r.t.Key }
func (r *rsetG) Len() int                 { return r.s.Len() }
func (r *rsetG) Bytes() int64             { return r.s.Bytes() }
func (r *rsetG) Clear()                   { r.s.Clear() }
func (r *rsetG) Has(v Val) bool           { return r.s.Has(v) }
func (r *rsetG) Insert(v Val) bool        { return r.s.Insert(canonKey(v)) }
func (r *rsetG) Remove(v Val) bool        { return r.s.Remove(v) }
func (r *rsetG) Iterate(f func(Val) bool) { r.s.Iterate(f) }

// --- dense (idx-keyed) sets: BitSet and SparseBitSet ---

// RSetBits is the Set{BitSet} runtime set.
type RSetBits struct {
	S *collections.BitSet
	t *ir.CollType
}

func (r *RSetBits) CollKind() ir.CollKind  { return ir.KSet }
func (r *RSetBits) Impl() collections.Impl { return collections.ImplBitSet }
func (r *RSetBits) ElemType() ir.Type      { return r.t.Key }
func (r *RSetBits) Len() int               { return r.S.Len() }
func (r *RSetBits) Bytes() int64           { return r.S.Bytes() }
func (r *RSetBits) Clear()                 { r.S.Clear() }
func (r *RSetBits) Has(v Val) bool         { return r.S.Has(uint32(v.I)) }
func (r *RSetBits) Insert(v Val) bool      { return r.S.Insert(uint32(v.I)) }
func (r *RSetBits) Remove(v Val) bool      { return r.S.Remove(uint32(v.I)) }
func (r *RSetBits) Iterate(f func(Val) bool) {
	r.S.Iterate(func(k uint32) bool { return f(IntV(uint64(k))) })
}

// RSetSparse is the Set{SparseBitSet} runtime set.
type RSetSparse struct {
	S *collections.SparseBitSet
	t *ir.CollType
}

func (r *RSetSparse) CollKind() ir.CollKind  { return ir.KSet }
func (r *RSetSparse) Impl() collections.Impl { return collections.ImplSparseBitSet }
func (r *RSetSparse) ElemType() ir.Type      { return r.t.Key }
func (r *RSetSparse) Len() int               { return r.S.Len() }
func (r *RSetSparse) Bytes() int64           { return r.S.Bytes() }
func (r *RSetSparse) Clear()                 { r.S.Clear() }
func (r *RSetSparse) Has(v Val) bool         { return r.S.Has(uint32(v.I)) }
func (r *RSetSparse) Insert(v Val) bool      { return r.S.Insert(uint32(v.I)) }
func (r *RSetSparse) Remove(v Val) bool      { return r.S.Remove(uint32(v.I)) }
func (r *RSetSparse) Iterate(f func(Val) bool) {
	r.S.Iterate(func(k uint32) bool { return f(IntV(uint64(k))) })
}

// --- HashMap-backed map ---

// hashLayout says which table of an RMapHash holds its entries.
type hashLayout uint8

const (
	boxedKeys hashLayout = iota // vv: Val keys and values
	wordKeys                    // wv: Word keys, Val values
	allWords                    // ww: Word keys and values
)

// RMapHash is the Map{HashMap} runtime map. Integer keys go in a
// collections.HashMap over Words, whose values are Words too when the
// value type is a non-string scalar; every other key type keeps a
// ValMap (see NewCollFor).
type RMapHash struct {
	vv     ValMap[Val]
	wv     collections.HashMap[Word, Val]
	ww     collections.HashMap[Word, Word]
	layout hashLayout
	vk     ValKind // kind of the values in ww
	t      *ir.CollType
}

func newRMapHash(ct *ir.CollType) *RMapHash {
	r := &RMapHash{t: ct}
	vk, wordVals := wordKind(ct.Elem)
	if wordKey(ct.Key) {
		r.layout = wordKeys
		if wordVals {
			r.layout, r.vk = allWords, vk
		}
	}
	return r
}

func (r *RMapHash) CollKind() ir.CollKind  { return ir.KMap }
func (r *RMapHash) Impl() collections.Impl { return collections.ImplHashMap }
func (r *RMapHash) ElemType() ir.Type      { return r.t.Elem }
func (r *RMapHash) HasKey(k Val) bool      { return r.Has(k) }

func (r *RMapHash) Len() int {
	switch r.layout {
	case allWords:
		return r.ww.Len()
	case wordKeys:
		return r.wv.Len()
	}
	return r.vv.Len()
}

func (r *RMapHash) Bytes() int64 {
	switch r.layout {
	case allWords:
		return r.ww.Bytes()
	case wordKeys:
		return r.wv.Bytes()
	}
	return r.vv.Bytes()
}

func (r *RMapHash) Clear() {
	switch r.layout {
	case allWords:
		r.ww.Clear()
	case wordKeys:
		r.wv.Clear()
	default:
		r.vv.Clear()
	}
}

func (r *RMapHash) Get(k Val) (Val, bool) {
	switch r.layout {
	case allWords:
		if w, ok := r.ww.Get(k.word()); ok {
			return w.Val(r.vk), true
		}
		return Val{}, false
	case wordKeys:
		return r.wv.Get(k.word())
	}
	return r.vv.Get(k)
}

func (r *RMapHash) Put(k, v Val) {
	switch r.layout {
	case allWords:
		r.ww.Put(k.word(), v.word())
	case wordKeys:
		r.wv.Put(k.word(), v)
	default:
		r.vv.Put(canonKey(k), v)
	}
}

func (r *RMapHash) Has(k Val) bool {
	switch r.layout {
	case allWords:
		return r.ww.Has(k.word())
	case wordKeys:
		return r.wv.Has(k.word())
	}
	return r.vv.Has(k)
}

func (r *RMapHash) Remove(k Val) bool {
	switch r.layout {
	case allWords:
		return r.ww.Remove(k.word())
	case wordKeys:
		return r.wv.Remove(k.word())
	}
	return r.vv.Remove(k)
}

func (r *RMapHash) Iterate(f func(k, v Val) bool) {
	switch r.layout {
	case allWords:
		r.ww.Iterate(func(k, v Word) bool { return f(k.Val(VInt), v.Val(r.vk)) })
	case wordKeys:
		r.wv.Iterate(func(k Word, v Val) bool { return f(k.Val(VInt), v) })
	default:
		r.vv.Iterate(f)
	}
}

// States exposes the slot-state array for the VM's inlined iteration;
// see (*ValMap).States.
func (r *RMapHash) States() []uint8 {
	switch r.layout {
	case allWords:
		return r.ww.States()
	case wordKeys:
		return r.wv.States()
	}
	return r.vv.States()
}

// SlotAt returns the entry in slot i, which must be SlotFull.
func (r *RMapHash) SlotAt(i int) (Val, Val) {
	switch r.layout {
	case allWords:
		k, v := r.ww.SlotAt(i)
		return k.Val(VInt), v.Val(r.vk)
	case wordKeys:
		k, v := r.wv.SlotAt(i)
		return k.Val(VInt), v
	}
	return r.vv.SlotAt(i)
}

// --- generic (sparse-keyed) map: Swiss ---

type rmapG struct {
	m collections.Map[Val, Val]
	t *ir.CollType
}

func (r *rmapG) CollKind() ir.CollKind  { return ir.KMap }
func (r *rmapG) Impl() collections.Impl { return r.m.Kind() }
func (r *rmapG) ElemType() ir.Type      { return r.t.Elem }
func (r *rmapG) Len() int               { return r.m.Len() }
func (r *rmapG) Bytes() int64 {
	total := r.m.Bytes()
	// Nested collections owned by map values contribute their own
	// footprints via the live registry; nothing extra here.
	return total
}
func (r *rmapG) Clear()                        { r.m.Clear() }
func (r *rmapG) Get(k Val) (Val, bool)         { return r.m.Get(k) }
func (r *rmapG) Put(k, v Val)                  { r.m.Put(canonKey(k), v) }
func (r *rmapG) HasKey(k Val) bool             { return r.m.Has(k) }
func (r *rmapG) Remove(k Val) bool             { return r.m.Remove(k) }
func (r *rmapG) Iterate(f func(k, v Val) bool) { r.m.Iterate(f) }

// --- dense (idx-keyed) map: BitMap ---

// RMapBit is the Map{BitMap} runtime map. Its values are Words when
// the value type is a non-string scalar, Vals otherwise.
type RMapBit struct {
	vals    collections.BitMap[Val]
	words   collections.BitMap[Word]
	present *collections.BitSet // the live map's presence set
	word    bool                // values live in words
	vk      ValKind             // kind of the values in words
	t       *ir.CollType
}

func newRMapBit(ct *ir.CollType) *RMapBit {
	r := &RMapBit{t: ct}
	r.vk, r.word = wordKind(ct.Elem)
	r.present = r.vals.Present()
	if r.word {
		r.present = r.words.Present()
	}
	return r
}

func (r *RMapBit) CollKind() ir.CollKind  { return ir.KMap }
func (r *RMapBit) Impl() collections.Impl { return collections.ImplBitMap }
func (r *RMapBit) ElemType() ir.Type      { return r.t.Elem }
func (r *RMapBit) Len() int               { return r.present.Len() }
func (r *RMapBit) HasKey(k Val) bool      { return r.present.Has(uint32(k.I)) }

// Words exposes the presence bitmap's backing words so the VM can
// inline the Iterate scan; the words must not be mutated.
func (r *RMapBit) Words() []uint64 { return r.present.Words() }

func (r *RMapBit) Bytes() int64 {
	if r.word {
		return r.words.Bytes()
	}
	return r.vals.Bytes()
}

func (r *RMapBit) Clear() {
	if r.word {
		r.words.Clear()
		return
	}
	r.vals.Clear()
}

func (r *RMapBit) Get(k Val) (v Val, ok bool) {
	if ok = r.present.Has(uint32(k.I)); ok {
		v = r.At(uint32(k.I))
	}
	return v, ok
}

// At returns the value stored under k, which must be present.
func (r *RMapBit) At(k uint32) Val {
	if r.word {
		return r.words.At(k).Val(r.vk)
	}
	return r.vals.At(k)
}

func (r *RMapBit) Put(k, v Val) {
	if r.word {
		r.words.Put(uint32(k.I), v.word())
		return
	}
	r.vals.Put(uint32(k.I), v)
}

func (r *RMapBit) Remove(k Val) bool {
	if r.word {
		return r.words.Remove(uint32(k.I))
	}
	return r.vals.Remove(uint32(k.I))
}

func (r *RMapBit) Iterate(f func(k, v Val) bool) {
	if r.word {
		r.words.Iterate(func(k uint32, v Word) bool { return f(IntV(uint64(k)), v.Val(r.vk)) })
		return
	}
	r.vals.Iterate(func(k uint32, v Val) bool { return f(IntV(uint64(k)), v) })
}

// --- sequence ---

// RSeqArr is the array-backed runtime sequence. Its elements are Words
// when the element type is a non-string scalar, Vals otherwise.
type RSeqArr struct {
	vals  collections.Seq[Val]
	words collections.Seq[Word]
	word  bool    // elements live in words
	ek    ValKind // kind of the elements in words
	t     *ir.CollType
}

func (r *RSeqArr) CollKind() ir.CollKind  { return ir.KSeq }
func (r *RSeqArr) Impl() collections.Impl { return collections.ImplArray }
func (r *RSeqArr) ElemType() ir.Type      { return r.t.Elem }

func (r *RSeqArr) Len() int {
	if r.word {
		return r.words.Len()
	}
	return r.vals.Len()
}

func (r *RSeqArr) Bytes() int64 {
	if r.word {
		return r.words.Bytes()
	}
	return r.vals.Bytes()
}

func (r *RSeqArr) Clear() {
	if r.word {
		r.words.Clear()
		return
	}
	r.vals.Clear()
}

func (r *RSeqArr) Get(i int) Val {
	if r.word {
		return r.words.Get(i).Val(r.ek)
	}
	return r.vals.Get(i)
}

func (r *RSeqArr) Set(i int, v Val) {
	if r.word {
		r.words.Set(i, v.word())
		return
	}
	r.vals.Set(i, v)
}

func (r *RSeqArr) Append(v Val) {
	if r.word {
		r.words.Append(v.word())
		return
	}
	r.vals.Append(v)
}

func (r *RSeqArr) InsertAt(i int, v Val) {
	if r.word {
		r.words.InsertAt(i, v.word())
		return
	}
	r.vals.InsertAt(i, v)
}

func (r *RSeqArr) RemoveAt(i int) {
	if r.word {
		r.words.RemoveAt(i)
		return
	}
	r.vals.RemoveAt(i)
}

func (r *RSeqArr) Iterate(f func(int, Val) bool) {
	if r.word {
		r.words.Iterate(func(i int, w Word) bool { return f(i, w.Val(r.ek)) })
		return
	}
	r.vals.Iterate(f)
}

// Elems exposes the backing array for the VM's inlined iteration:
// words and their kind when the elements are unboxed, vals otherwise;
// the unused one is nil. Iterate ranges over this same array.
func (r *RSeqArr) Elems() ([]Val, []Word, ValKind) {
	return r.vals.Slice(), r.words.Slice(), r.ek
}

// NewCollFor materializes an empty collection of type ct without
// registering it anywhere: the constructor behind Runtime.NewColl.
// Unselected types fall back to the given defaults.
//
// It also picks each collection's element storage, once, from the IR
// types: non-string scalar elements of sequences and of HashMap and
// BitMap values are stored as unboxed Words, and integer keys of
// HashSets and HashMaps go in collections.HashMaps over Words.
// Everything else, and every Swiss or Flat table, keeps boxed Vals.
func NewCollFor(ct *ir.CollType, defSet, defMap collections.Impl) Coll {
	var c Coll
	switch ct.Kind {
	case ir.KSeq:
		ek, word := wordKind(ct.Elem)
		c = &RSeqArr{word: word, ek: ek, t: ct}
	case ir.KSet:
		sel := ct.Sel
		if sel == collections.ImplNone {
			sel = defSet
		}
		switch sel {
		case collections.ImplBitSet:
			c = &RSetBits{S: collections.NewBitSet(), t: ct}
		case collections.ImplSparseBitSet:
			c = &RSetSparse{S: collections.NewSparseBitSet(), t: ct}
		case collections.ImplFlatSet:
			c = &rsetG{s: collections.NewFlatSet(CmpVal), t: ct}
		case collections.ImplSwissSet:
			c = &rsetG{s: collections.NewSwissSet(HashVal, EqVal), t: ct}
		default:
			c = &RSetHash{words: wordKey(ct.Key), t: ct}
		}
	case ir.KMap:
		sel := ct.Sel
		if sel == collections.ImplNone {
			sel = defMap
		}
		switch sel {
		case collections.ImplBitMap:
			c = newRMapBit(ct)
		case collections.ImplSwissMap:
			c = &rmapG{m: collections.NewSwissMap[Val, Val](HashVal, EqVal), t: ct}
		default:
			c = newRMapHash(ct)
		}
	default:
		panic("NewColl: unsupported kind " + ct.Kind.String())
	}
	return c
}
