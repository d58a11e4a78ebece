// Package parser reads the textual MEMOIR format of the paper's
// Figures 1 and 2 — indentation-structured functions with SSA values,
// first-class collection types, positional phis, and `#pragma ade`
// optimization directives (Listing 5). ir.Print output round-trips
// through this parser.
package parser

import (
	"fmt"
	"strings"
)

type tokKind uint8

const (
	tEOF    tokKind = iota
	tIdent          // fn, if, for, read, Seq, ...
	tValue          // %name
	tAt             // @name
	tPragma         // #pragma
	tInt            // 123
	tFloat          // 1.5
	tString         // "..."
	tPunct          // ( ) [ ] { } < > , : . :=
)

type token struct {
	kind tokKind
	text string
}

type line struct {
	num    int
	indent int
	toks   []token
}

// lexer tokenizes one source. Every line's tokens are appended to one
// arena; a line's toks are sliced out of it once the whole source is
// lexed, since appending may move the arena until then.
type lexer struct {
	arena []token
	lines []line
	ends  []int // arena length after each line's tokens
}

// lexLine appends the tokens of one source line (indentation already
// stripped) to the arena.
func (lx *lexer) lexLine(num int, s string) error {
	i := 0
	n := len(s)
	emit := func(k tokKind, t string) { lx.arena = append(lx.arena, token{k, t}) }
	isIdent := func(c byte) bool {
		return c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
	}
	for i < n {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '/' && i+1 < n && s[i+1] == '/':
			i = n // comment
		case c == '#':
			if strings.HasPrefix(s[i:], "#pragma") {
				emit(tPragma, "#pragma")
				i += len("#pragma")
			} else {
				i = n // comment
			}
		case c == '%':
			// Dots are part of value names (%t.3, %id.ade2); tuple
			// field access is not expressible in the textual form.
			j := i + 1
			for j < n && (isIdent(s[j]) || s[j] == '.') {
				j++
			}
			emit(tValue, s[i+1:j])
			i = j
		case c == '@':
			j := i + 1
			for j < n && (isIdent(s[j]) || s[j] == '.') {
				j++
			}
			emit(tAt, s[i+1:j])
			i = j
		case c == '"':
			j := i + 1
			for j < n && s[j] != '"' {
				j++
			}
			if j >= n {
				return fmt.Errorf("line %d: unterminated string", num)
			}
			emit(tString, s[i+1:j])
			i = j + 1
		case c >= '0' && c <= '9' || (c == '-' && i+1 < n && s[i+1] >= '0' && s[i+1] <= '9'):
			j := i + 1
			isFloat := false
			for j < n && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' || s[j] == 'e' || s[j] == '-' && (s[j-1] == 'e')) {
				if s[j] == '.' || s[j] == 'e' {
					isFloat = true
				}
				j++
			}
			if isFloat {
				emit(tFloat, s[i:j])
			} else {
				emit(tInt, s[i:j])
			}
			i = j
		case isIdent(c):
			j := i + 1
			for j < n && isIdent(s[j]) {
				j++
			}
			emit(tIdent, s[i:j])
			i = j
		case c == ':' && i+1 < n && s[i+1] == '=':
			emit(tPunct, ":=")
			i += 2
		case strings.IndexByte("()[]{}<>,:.", c) >= 0:
			emit(tPunct, s[i:i+1])
			i++
		default:
			return fmt.Errorf("line %d: unexpected character %q", num, c)
		}
	}
	return nil
}

// lex splits source text into indented token lines, skipping blanks.
func lex(src string) ([]line, error) {
	// Printed MEMOIR runs four to six source bytes per token.
	lx := &lexer{arena: make([]token, 0, len(src)/4)}
	for num := 1; ; num++ {
		raw, rest, more := strings.Cut(src, "\n")
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if body := strings.TrimRight(raw[indent:], " \t\r"); body != "" {
			start := len(lx.arena)
			if err := lx.lexLine(num, body); err != nil {
				return nil, err
			}
			if len(lx.arena) > start {
				lx.lines = append(lx.lines, line{num: num, indent: indent / 2})
				lx.ends = append(lx.ends, len(lx.arena))
			}
		}
		if !more {
			break
		}
		src = rest
	}
	start := 0
	for i, end := range lx.ends {
		lx.lines[i].toks = lx.arena[start:end:end]
		start = end
	}
	return lx.lines, nil
}
