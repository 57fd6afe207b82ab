package placer

import (
	"lemur/internal/nfgraph"
	"lemur/internal/pisa"
)

// For the external tests (package placer_test, which may import
// internal/experiments for the canonical chains).

// ReferenceSwitchTables is the allocating lowering kept as the oracle.
var ReferenceSwitchTables = referenceSwitchTables

// BuildSwitchTablesTight is BuildSwitchTables on a buffer whose arena starts
// with room for arenaCap ints and whose table list starts with room for one,
// whatever the prep says: every list past that overflows into a new block.
func BuildSwitchTablesTight(in *Input, assigns []map[*nfgraph.Node]Assign, optimize bool, arenaCap int) []pisa.LogicalTable {
	dense, base := denseAssigns(in, assigns)
	b := &tableBuf{tables: make([]pisa.LogicalTable, 0, 1), arena: make([]int, 0, arenaCap)}
	return b.lower(in, dense, base, optimize)
}

// PlaceRawOptimal is the Optimal search with nothing skipped but the demand
// cut (searchRaw): no symmetry collapse, no incumbent cut, no budget.
func PlaceRawOptimal(in *Input) (*Result, error) { return placeBruteForce(in, searchRaw) }
