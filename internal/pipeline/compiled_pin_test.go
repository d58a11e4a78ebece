package pipeline_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/bytecode"
	"memoir/internal/core"
	"memoir/internal/ir"
	"memoir/internal/pipeline"
)

// compiledSumFile pins what the compiler makes of every suite program
// under the pinned configurations: one
// "<program>/<config> <ir hash> <instrs> <disasm sha256>" line each.
// The IR hash is the post-ADE ir.ProgramHash, instrs the bytecode
// instruction count and the last field the SHA-256 of
// bytecode.Disasm, so any change to an ADE decision, to lowering or to
// the emitted code fails here.
const compiledSumFile = "testdata/compiled.sum"

// pinnedConfigs are the ADE configurations compiled.sum covers: the
// paper's full configuration, its ablations, the sparse selection, and
// the full configuration under the sandbox adeserved compiles with.
func pinnedConfigs() []core.NamedOptions {
	byName := map[string]core.Options{}
	for _, no := range core.OptionsMatrix() {
		byName[no.Name] = no.Opts
	}
	var out []core.NamedOptions
	for _, name := range []string{"ade", "ade-noredundant", "ade-nopropagation", "ade-nosharing", "ade-sparse"} {
		out = append(out, core.NamedOptions{Name: name, Opts: byName[name]})
	}
	sandbox := byName["ade"]
	sandbox.Sandbox = true
	return append(out, core.NamedOptions{Name: "ade-sandbox", Opts: sandbox})
}

// compileLine compiles text under opts and renders its compiled.sum
// fields.
func compileLine(text string, opts core.Options) (string, error) {
	prog, err := pipeline.Parse(text)
	if err != nil {
		return "", err
	}
	if _, err := pipeline.Transform(prog, opts); err != nil {
		return "", err
	}
	bc, err := pipeline.Compile(prog)
	if err != nil {
		return "", err
	}
	n := 0
	for _, f := range bc.Funcs {
		n += len(f.Code)
	}
	dis := sha256.Sum256([]byte(bytecode.Disasm(bc)))
	return fmt.Sprintf("%s %d %s", ir.ProgramHash(prog), n, hex.EncodeToString(dis[:])), nil
}

// TestCompiledOutputPinned: every suite program printed to text and
// compiled under every pinned configuration reproduces its pinned IR
// hash, instruction count and disassembly. A deliberate change to
// what the compiler emits fails it; the failure log ends with the
// recomputed sum file.
func TestCompiledOutputPinned(t *testing.T) {
	f, err := os.Open(compiledSumFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, fields, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = fields
		}
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	n := 0
	for _, s := range bench.All() {
		text := ir.Print(s.Build(""))
		for _, cfg := range pinnedConfigs() {
			fields, err := compileLine(text, cfg.Opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Abbr, cfg.Name, err)
			}
			name := s.Abbr + "/" + cfg.Name
			fmt.Fprintf(&got, "%s %s\n", name, fields)
			n++
			if want[name] != fields {
				t.Errorf("%s: compiled to %s, want %q", name, fields, want[name])
			}
		}
	}
	if len(want) != n {
		t.Errorf("%s has %d entries, want %d", compiledSumFile, len(want), n)
	}
	if t.Failed() {
		t.Logf("recomputed %s:\n%s", compiledSumFile, got.String())
	}
}

// BenchmarkCompilePipeline compiles the 18 suite programs from text to
// verified bytecode per op — Parse, Transform with the sandbox on, as
// adeserved runs it, then Compile — and reports allocations.
func BenchmarkCompilePipeline(b *testing.B) {
	var texts []string
	for _, s := range bench.All() {
		texts = append(texts, ir.Print(s.Build("")))
	}
	opts := core.DefaultOptions()
	opts.Sandbox = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			prog, err := pipeline.Parse(text)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pipeline.Transform(prog, opts); err != nil {
				b.Fatal(err)
			}
			if _, err := pipeline.Compile(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBytecodeCompile lowers the 18 suite programs, each already
// through ADE (the default options, sandbox on), to verified bytecode
// per op: the pipeline.Compile stage alone, register coalescing and
// the verifier included.
func BenchmarkBytecodeCompile(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Sandbox = true
	var progs []*ir.Program
	for _, s := range bench.All() {
		prog, err := pipeline.Parse(ir.Print(s.Build("")))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pipeline.Transform(prog, opts); err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			if _, err := pipeline.Compile(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}
