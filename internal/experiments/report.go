package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"memoir/internal/bench"
	"memoir/internal/interp"
)

// BenchReportSchema identifies the machine-readable per-benchmark
// report format written by `adebench -json` (the CI artifact next to
// difftest-report.json).
const BenchReportSchema = "adebench-report/v1"

// BenchRow is one (benchmark, configuration) cell of the report. The
// op counts are deterministic; the wall-clock fields are single-trial
// and only indicative.
type BenchRow struct {
	Bench       string `json:"bench"`
	Config      string `json:"config"`
	WallWholeNs int64  `json:"wallWholeNs"`
	WallROINs   int64  `json:"wallROINs"`
	Steps       uint64 `json:"steps"`
	CollOps     uint64 `json:"collOps"`
	Sparse      uint64 `json:"sparse"`
	Dense       uint64 `json:"dense"`
	Trans       uint64 `json:"trans"`
	PeakBytes   int64  `json:"peakBytes"`
}

// BenchReport is the on-disk shape of `adebench -json` output.
type BenchReport struct {
	Schema string `json:"schema"`
	Scale  string `json:"scale"`
	// Engine always reads "vm"; it stays so existing report readers
	// keep parsing.
	Engine string     `json:"engine"`
	Rows   []BenchRow `json:"rows"`
}

// CollectBenchReport runs every benchmark under the gate
// configurations (memoir baseline and full ADE) once on the VM and
// records one row per cell. bud bounds each execution (zero = no
// limits).
func CollectBenchReport(sc bench.Scale, bud Budget) (*BenchReport, error) {
	out := &BenchReport{
		Schema: BenchReportSchema,
		Scale:  sc.String(),
		Engine: bench.EngineVM.String(),
	}
	for _, s := range bench.All() {
		for _, cfg := range gateConfigs() {
			prog, err := buildProgram(s, cfg, sc)
			if err != nil {
				return nil, err
			}
			res, err := executeBudgeted(s, prog, interpOpts(cfg, false), sc, bud)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", s.Abbr, cfg.Name, err)
			}
			st := res.Stats
			out.Rows = append(out.Rows, BenchRow{
				Bench:       s.Abbr,
				Config:      cfg.Name,
				WallWholeNs: res.WallWhole.Nanoseconds(),
				WallROINs:   res.WallROI.Nanoseconds(),
				Steps:       st.Steps,
				CollOps:     st.CollOps(),
				Sparse:      st.Sparse,
				Dense:       st.Dense,
				Trans: st.Counts[interp.ImplEnum][interp.OKEnc] +
					st.Counts[interp.ImplEnum][interp.OKDec] +
					st.Counts[interp.ImplEnum][interp.OKAdd],
				PeakBytes: st.PeakBytes,
			})
		}
	}
	return out, nil
}

// WriteBenchReport writes the report as indented JSON.
func WriteBenchReport(r *BenchReport, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
