// Package pisa simulates the programmable ToR switch: a stage-packing
// compiler that maps logical match/action tables onto a Tofino-class
// pipeline (the black box the Placer must invoke to learn real stage usage,
// §3.2/§5.2), and a runtime that executes chain steering plus
// switch-resident NFs at line rate.
package pisa

import (
	"errors"
	"fmt"

	"lemur/internal/hw"
)

// LogicalTable is one match/action table to place on the pipeline. Deps
// lists indices (into the same slice) of tables that must occupy strictly
// earlier stages — the meta-compiler's dependency-elimination optimizations
// (§4.2) work precisely by constructing table lists with fewer Deps edges.
type LogicalTable struct {
	Name string
	SRAM int // memory blocks
	TCAM int
	Deps []int
}

// Binary is a compiled pipeline layout.
type Binary struct {
	StageOf []int // stage index per input table
	Stages  int   // stages used (max stage + 1)
}

// ErrStageOverflow reports that a program needs more stages than the switch
// has. The returned Binary still carries the full layout so callers can
// report "would need N stages" (the paper's 27-stage ablation).
var ErrStageOverflow = errors.New("pisa: program exceeds pipeline stages")

// Compile packs tables into stages: each table goes to the earliest stage
// after all its dependencies that still has SRAM/TCAM/table-slot budget.
// This reproduces the observable behaviour of the vendor compiler's stage
// packing — mutually independent tables (parallel branches, disjoint chains)
// share stages, while dependency chains consume pipeline depth.
func Compile(spec *hw.PISASpec, tables []LogicalTable) (*Binary, error) {
	type stageRes struct {
		sram, tcam, tables int
	}
	// Real pipelines are a dozen stages deep; the ledger outgrows the stack
	// only for a program that overflows one by far.
	var ledger [32]stageRes
	stages := ledger[:0]
	bin := &Binary{StageOf: make([]int, len(tables))}

	for i, t := range tables {
		min := 0
		for _, d := range t.Deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("pisa: table %q dep %d out of order (must reference an earlier table)", t.Name, d)
			}
			if s := bin.StageOf[d] + 1; s > min {
				min = s
			}
		}
		if t.SRAM > spec.SRAMPerStage || t.TCAM > spec.TCAMPerStage {
			return nil, fmt.Errorf("pisa: table %q (sram=%d tcam=%d) exceeds per-stage budget (%d/%d)",
				t.Name, t.SRAM, t.TCAM, spec.SRAMPerStage, spec.TCAMPerStage)
		}
		s := min
		for {
			for len(stages) <= s {
				stages = append(stages, stageRes{})
			}
			r := &stages[s]
			if r.sram+t.SRAM <= spec.SRAMPerStage &&
				r.tcam+t.TCAM <= spec.TCAMPerStage &&
				r.tables+1 <= spec.TablesPerStage {
				r.sram += t.SRAM
				r.tcam += t.TCAM
				r.tables++
				bin.StageOf[i] = s
				break
			}
			s++
		}
	}
	bin.Stages = len(stages)
	if bin.Stages > spec.Stages {
		return bin, fmt.Errorf("%w: needs %d stages, switch has %d", ErrStageOverflow, bin.Stages, spec.Stages)
	}
	return bin, nil
}

// ConservativeEstimate is the static stage estimator the paper initially
// tried ([14]-style) before resorting to invoking the real compiler: every
// table is assumed to need its own stage, plus the NSH encap/decap overhead
// when the chain spans platforms. §5.2's example: 12 tables + 2 NSH = 14
// estimated, while the compiler packs the same program into 12.
func ConservativeEstimate(nTables int, crossPlatform bool) int {
	est := nTables
	if crossPlatform {
		est += 2 // encap + decap
	}
	return est
}
