package ir

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
)

// ProgramHash returns the canonical content hash of a program: the
// SHA-256 of its canonical textual rendering (Print), hex-encoded.
//
// Print is a normal form — it round-trips through the parser and is
// independent of source whitespace, comments, and the in-memory
// representation's incidental state (value pointers, slot
// assignments, source positions). Two parses of the same program
// text, a program and its CloneProgram copy, and two differently
// formatted sources of the same program therefore all hash
// identically. The serving layer keys its compiled-bytecode cache by
// (ProgramHash, options fingerprint); hash stability across
// re-parse/clone is load-bearing there and pinned by tests.
//
// The hash covers everything Print renders: function order and
// signatures, exported markers, directives (#pragma ade), and every
// instruction with its operands. It does NOT cover anything the
// compiler derives (slots, positions), so it is a pure function of
// program semantics as written.
//
// The rendering streams into the hash; the program's text is never
// built as one string.
func ProgramHash(p *Program) string {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 4096)
	printProgram(w, p)
	w.Flush() // a hash.Hash Write never fails
	return hex.EncodeToString(h.Sum(nil))
}
