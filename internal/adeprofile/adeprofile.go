// Package adeprofile defines adeprofile/v1, the durable on-disk form
// of the runtime telemetry both engines collect: a canonical,
// engine-deterministic profile keyed by the same stable site keys
// {fn, new-ordinal, depth} the compiler remarks carry, so a profile
// survives re-parse, clone, and the ADE transform itself. A profile
// stores telemetry's own records (telemetry.SiteStats and
// telemetry.EnumStats); Merge alone decides which of their fields
// persist.
//
// A profile is the artifact half of the feedback loop: memoir-run,
// adebench, and adeserved emit one from live telemetry; adec consumes
// one to weight the sharing-benefit heuristic and steer
// implementation selection; adereport joins one back to remarks and
// suggests pragmas where the static heuristic and the observed
// behaviour disagree.
//
// Profiles merge: the fold is commutative and associative (counts
// add, peaks max, key bounds widen; the per-run mutation count and
// occupancy samples are dropped), and serialization normalizes
// order (programs sorted by hash, sites by key, enumerations by
// global), so shards collected on different engines, machines, or in
// different orders produce byte-identical files.
//
// The package is a leaf over internal/telemetry: the compiler, the
// CLIs, and the daemon all share it without import cycles.
package adeprofile

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"memoir/internal/telemetry"
)

// Schema is the format identifier carried by every profile file.
const Schema = "adeprofile/v1"

// Profile is one adeprofile/v1 document: per-program telemetry
// aggregates keyed by the program's pre-ADE hash. A single file can
// hold profiles for many programs (adebench merges its whole suite
// into one), and a compile picks its program out by hash.
type Profile struct {
	Schema   string            `json:"schema"`
	Programs []*ProgramProfile `json:"programs"`
}

// ProgramProfile aggregates every recorded run of one program. Hash
// is ir.ProgramHash of the *untransformed* source: profiles are
// collected against what the user wrote, and the site keys inside are
// stable across the ADE rewrite, so the same profile guides any
// options configuration of that program.
//
// Sites and Enums hold the engines' own telemetry records, folded
// across runs by Merge: the per-run fields (SiteStats.Muts and the
// occupancy Samples) are never folded, so they stay zero and drop out
// of the serialization.
type ProgramProfile struct {
	Hash string `json:"hash"`
	// Name is an optional human label (benchmark name, file name);
	// informational only — merging keeps the lexicographically smallest
	// non-empty one.
	Name string `json:"name,omitempty"`
	// Runs counts the recorded executions folded into this profile.
	Runs  uint64                 `json:"runs"`
	Sites []*telemetry.SiteStats `json:"sites"`
	Enums []*telemetry.EnumStats `json:"enums,omitempty"`
}

// New returns an empty adeprofile/v1 profile.
func New() *Profile {
	return &Profile{Schema: Schema}
}

// FromTelemetry folds one recorded run into a single-program profile.
// hash must be the pre-ADE ir.ProgramHash of the program the run
// executed (possibly post-ADE at runtime — the site keys are the
// same); name is an optional label.
func FromTelemetry(hash, name string, t *telemetry.Telemetry) *Profile {
	run := &ProgramProfile{Hash: hash, Name: name, Runs: 1}
	if t != nil {
		run.Sites, run.Enums = t.Sites, t.Enums
	}
	p := New()
	p.Merge(&Profile{Programs: []*ProgramProfile{run}})
	return p
}

// For returns the program profile recorded under hash, or nil.
func (p *Profile) For(hash string) *ProgramProfile {
	if p == nil {
		return nil
	}
	for _, pp := range p.Programs {
		if pp.Hash == hash {
			return pp
		}
	}
	return nil
}

// Site returns the aggregate of the site with key k, or nil.
func (pp *ProgramProfile) Site(k telemetry.SiteKey) *telemetry.SiteStats {
	if pp == nil {
		return nil
	}
	for _, s := range pp.Sites {
		if s.Key == k {
			return s
		}
	}
	return nil
}

// Merge folds q into p, and is the one rule that decides which
// telemetry fields persist. The fold is commutative and associative:
// counts add, peaks max, key bounds widen, so shards merged in any
// order produce the same profile (and, after Write's normalization,
// the same bytes). Per-run fields are not folded.
func (p *Profile) Merge(q *Profile) {
	if q == nil {
		return
	}
	for _, qp := range q.Programs {
		pp := p.For(qp.Hash)
		if pp == nil {
			pp = &ProgramProfile{Hash: qp.Hash}
			p.Programs = append(p.Programs, pp)
		}
		// Keep the lexicographically smallest non-empty label so the
		// fold stays order-invariant when shards disagree.
		if qp.Name != "" && (pp.Name == "" || qp.Name < pp.Name) {
			pp.Name = qp.Name
		}
		pp.Runs += qp.Runs
		for _, qs := range qp.Sites {
			ps := pp.Site(qs.Key)
			if ps == nil {
				ps = &telemetry.SiteStats{Key: qs.Key, Impl: qs.Impl}
				pp.Sites = append(pp.Sites, ps)
			}
			if qs.Impl != "" && (ps.Impl == "" || qs.Impl < ps.Impl) {
				ps.Impl = qs.Impl
			}
			for k := range ps.Ops {
				ps.Ops[k] += qs.Ops[k]
			}
			ps.Sparse += qs.Sparse
			ps.Dense += qs.Dense
			ps.Instances += qs.Instances
			if qs.PeakLen > ps.PeakLen {
				ps.PeakLen = qs.PeakLen
			}
			if qs.KeySeen {
				if !ps.KeySeen || qs.KeyLo < ps.KeyLo {
					ps.KeyLo = qs.KeyLo
				}
				if !ps.KeySeen || qs.KeyHi > ps.KeyHi {
					ps.KeyHi = qs.KeyHi
				}
				ps.KeySeen = true
			}
		}
		for _, qe := range qp.Enums {
			pe := pp.enum(qe.Global)
			if pe == nil {
				pe = &telemetry.EnumStats{Global: qe.Global}
				pp.Enums = append(pp.Enums, pe)
			}
			pe.Enc += qe.Enc
			pe.Dec += qe.Dec
			pe.Add += qe.Add
			pe.Added += qe.Added
			if qe.FinalLen > pe.FinalLen {
				pe.FinalLen = qe.FinalLen
			}
		}
	}
	p.normalize()
}

func (pp *ProgramProfile) enum(global string) *telemetry.EnumStats {
	for _, e := range pp.Enums {
		if e.Global == global {
			return e
		}
	}
	return nil
}

// normalize sorts programs by hash, sites by key, and enumerations by
// global, making the in-memory and serialized forms canonical.
func (p *Profile) normalize() {
	p.Schema = Schema
	sort.Slice(p.Programs, func(i, j int) bool { return p.Programs[i].Hash < p.Programs[j].Hash })
	for _, pp := range p.Programs {
		sort.Slice(pp.Sites, func(i, j int) bool { return keyLess(pp.Sites[i].Key, pp.Sites[j].Key) })
		sort.Slice(pp.Enums, func(i, j int) bool { return pp.Enums[i].Global < pp.Enums[j].Global })
	}
}

func keyLess(a, b telemetry.SiteKey) bool {
	if a.Fn != b.Fn {
		return a.Fn < b.Fn
	}
	if a.Alloc != b.Alloc {
		return a.Alloc < b.Alloc
	}
	return a.Depth < b.Depth
}

// Validate checks structural well-formedness: the schema tag, a
// non-empty hash per program, and no duplicate program hashes or site
// keys. It does not check site keys against any program — that is
// staleness, which the consumer (core.Apply) detects against the
// program it is actually compiling and reports as a profile-stale
// remark rather than an error.
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("adeprofile: nil profile")
	}
	if p.Schema != Schema {
		return fmt.Errorf("adeprofile: schema %q, want %q", p.Schema, Schema)
	}
	hashes := map[string]bool{}
	for _, pp := range p.Programs {
		if pp.Hash == "" {
			return fmt.Errorf("adeprofile: program with empty hash")
		}
		if hashes[pp.Hash] {
			return fmt.Errorf("adeprofile: duplicate program hash %s", pp.Hash)
		}
		hashes[pp.Hash] = true
		keys := map[telemetry.SiteKey]bool{}
		for _, s := range pp.Sites {
			if keys[s.Key] {
				return fmt.Errorf("adeprofile: %s: duplicate site key %s", pp.Hash, s.Key)
			}
			keys[s.Key] = true
		}
		globals := map[string]bool{}
		for _, e := range pp.Enums {
			if globals[e.Global] {
				return fmt.Errorf("adeprofile: %s: duplicate enum %q", pp.Hash, e.Global)
			}
			globals[e.Global] = true
		}
	}
	return nil
}

// Write serializes the profile as canonical indented JSON: normalized
// order, so equal profiles are byte-identical regardless of how they
// were assembled.
func (p *Profile) Write(w io.Writer) error {
	p.normalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Fingerprint returns a short content hash of the canonical
// serialization, used to fold the profile into the compiler options
// fingerprint (two compiles guided by different profiles must not
// share a cache entry).
func (p *Profile) Fingerprint() string {
	if p == nil {
		return ""
	}
	h := sha256.New()
	if err := p.Write(h); err != nil {
		return "err"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Read parses and validates an adeprofile/v1 document.
func Read(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("adeprofile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.normalize()
	return &p, nil
}

// ReadFile reads a profile from disk.
func ReadFile(name string) (*Profile, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return p, nil
}

// WriteFile writes the canonical serialization to disk.
func (p *Profile) WriteFile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := p.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
