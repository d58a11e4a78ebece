package difftest

import (
	"fmt"
	"io"

	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

// RandomOptions configures the -seed random-program mode.
type RandomOptions struct {
	// Seed is the first generator seed; Count consecutive seeds run.
	Seed  int64
	Count int
	// Shard slices the seed list the same way Run slices benchmarks.
	Shard Shard
	// Configs filters matrix columns by name; empty means all.
	Configs []string
	// Matrix overrides the configuration matrix (tests); nil means
	// Matrix().
	Matrix []Config
	// Check enables core's mid-pipeline invariant checking on every
	// ADE column.
	Check bool
	// Verbose, when non-nil, receives one progress line per seed.
	Verbose io.Writer
}

// seedSource is the generated program for seed on the family's
// canonical input.
func seedSource(seed int64) source {
	return source{
		name:  fmt.Sprintf("seed%d", seed),
		build: func() *ir.Program { return core.GenerateProgram(seed) },
		input: seqInput(core.FuzzInput(seed)),
	}
}

// RunRandom diffs randomly generated IR programs (the generator family
// behind internal/core's fuzz tests) across the configuration matrix.
func RunRandom(o RandomOptions) (*Report, error) {
	if o.Count <= 0 {
		o.Count = 1
	}
	matrix := o.Matrix
	if matrix == nil {
		matrix = Matrix()
	}
	cfgs, err := selectConfigs(matrix, o.Configs)
	if err != nil {
		return nil, err
	}
	seeds := Partition(o.Count, o.Shard)
	if len(seeds) == 0 {
		return nil, fmt.Errorf("empty selection: shard %s of %d seeds covers nothing", o.Shard.Norm(), o.Count)
	}
	rpt := NewReport(0, o.Shard, ConfigNames(cfgs))
	rpt.Scale = "random"
	rr := &RandomReport{Seed: o.Seed, Count: o.Count}
	for _, j := range seeds {
		seed := o.Seed + int64(j)
		ref, err := reference(seedSource(seed))
		if err != nil {
			return nil, fmt.Errorf("seed %d: reference run: %w", seed, err)
		}
		twins := map[string]*outcome{}
		for _, c := range cfgs {
			e, got, div := runRandomCell(seed, withCheck(c, o.Check, 0), ref)
			if div == nil {
				// The engine-twin count-parity assertion, mirrored from
				// the benchmark path.
				if d := twinDivergence(got, twins, c, "", seed); d != nil {
					e.Diverged = true
					div = d
				}
			}
			rr.Entries = append(rr.Entries, e)
			if div != nil {
				rpt.Divergences = append(rpt.Divergences, *div)
			}
		}
		if o.Verbose != nil {
			fmt.Fprintf(o.Verbose, "seed %d: %d configs diffed\n", seed, len(cfgs))
		}
	}
	rpt.Random = rr
	rpt.Finish()
	return rpt, nil
}

// runRandomCell diffs one (seed, config) cell against the reference.
func runRandomCell(seed int64, c Config, ref *outcome) (RandomEntry, *outcome, *Divergence) {
	e := RandomEntry{Seed: seed, Config: c.Name, Engine: c.Engine.String()}
	got, _, div, err := diffCell(seedSource(seed), c, ref, interpOpts(c))
	if err != nil {
		e.Error = err.Error()
		return e, nil, nil
	}
	e.Ret, e.EmitSum = got.ret, got.emitSum
	e.Enc = got.stats.Counts[interp.ImplEnum][interp.OKEnc]
	e.Dec = got.stats.Counts[interp.ImplEnum][interp.OKDec]
	e.Add = got.stats.Counts[interp.ImplEnum][interp.OKAdd]
	if div != nil {
		e.Diverged = true
		div.Seed = seed
	}
	return e, got, div
}
