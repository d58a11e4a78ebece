// Package loadtest is the in-process chaos harness for adeserved: it
// drives server handlers (no sockets) through injected store faults
// and hard restarts and checks every answer against ground truth (see
// RunChaos). Serving latency and throughput are measured by perfbench's
// serve-mixed workload, which also mints its programs from
// DefaultProgram.
package loadtest

import (
	"strconv"
	"strings"
)

// DefaultProgram is the histogram kernel the harness serves: a
// sparse-keyed map build + probe loop that ADE enumerates, so the
// compile side does real optimization work. The %MOD% marker is
// replaced to mint distinct-but-equal-cost program variants.
const DefaultProgram = `fn u64 @main(): exported
  %input := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %in0 := phi(%input, %in1)
    %h := mul(%i, 2654435761)
    %v := rem(%h, %MOD%)
    %sparse := mul(%v, 982451653)
    %in1 := insert(%in0, end, %sparse)
    %i1 := add(%i, 1)
    %more := lt(%i1, 500)
  while %more
  %inF := phi(%in0)
  %hist := new Map<u64,u32>()
  for [%i2, %val] in %inF:
    %hist0 := phi(%hist, %hist3)
    %cond := has(%hist0, %val)
    if %cond:
      %freq := read(%hist0, %val)
    else:
      %hist1 := insert(%hist0, %val)
    %freq0 := phi(%freq, 0)
    %hist2 := phi(%hist0, %hist1)
    %freq1 := add(%freq0, 1)
    %hist3 := write(%hist2, %val, %freq1)
  %histF := phi(%hist0)
  for [%k, %f] in %histF:
    %g64 := cast<u64>(%f)
    %kv := add(%k, %g64)
    emit(%kv)
  %n := size(%histF)
  ret %n
`

// variant mints the i-th distinct program from DefaultProgram.
// Variants differ in one constant (the hash modulus), so they cost the
// same to compile and run but hash to distinct cache keys.
func variant(i int) string {
	return strings.ReplaceAll(DefaultProgram, "%MOD%", strconv.Itoa(97+2*i))
}

// request is the wire subset the harness sends and reads back. It
// mirrors internal/server's Request/Response without importing their
// types, so the checks read the JSON a client sees.
type request struct {
	Program string `json:"program"`
}

type response struct {
	OK     bool `json:"ok"`
	Phases *struct {
		Parsed   bool `json:"parsed"`
		ADE      bool `json:"ade"`
		Compiled bool `json:"compiled"`
	} `json:"phases"`
	Result string `json:"result"`
	Output *struct {
		Count    uint64 `json:"count"`
		Checksum uint64 `json:"checksum"`
	} `json:"output"`
	Error *struct {
		Code string `json:"code"`
	} `json:"error"`
}
