package nf

// WithReferenceTables runs f with the four stateful classes' registry
// constructors swapped for the map-backed references (reference_test.go), so
// whatever f builds through the registry — nf.New, a metacompiler.Compile —
// binds the oracle tables; the production constructors are back when it
// returns. The registry is process-wide: not for parallel tests.
func WithReferenceTables(f func()) {
	refs := map[string]func(string, Params) (NF, error){
		"NAT": newNATRef, "Monitor": newMonitorRef, "Dedup": newDedupRef, "LB": newLBRef,
	}
	for class, ref := range refs {
		meta, prod := Registry[class], Registry[class].New
		meta.New = ref
		defer func() { meta.New = prod }()
	}
	f()
}
