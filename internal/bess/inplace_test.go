package bess

import (
	"bytes"
	"testing"

	"lemur/internal/nf"
)

// TestProcessFrameInPlaceMatches: the in-place hop (DecapShift/EncapShift
// over the pooled buffer) must emit exactly the bytes of the copying
// processCopy, including across stateful NFs, for a stream of frames; the
// oracle never touches its input. Two pipelines so NF state evolves
// identically on each side.
func TestProcessFrameInPlaceMatches(t *testing.T) {
	mk := func() *Pipeline {
		pl := NewPipeline(server())
		sg := mkSub(t, "sg0", "Monitor", "Encrypt", "IPv4Fwd")
		if err := pl.Add(sg); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	ref, fast := mk(), mk()
	env := &nf.Env{}
	for i := 0; i < 50; i++ {
		in := encFrame(t, 1, 10, uint16(80+i%5))
		orig := append([]byte(nil), in...)
		want, err := processCopy(ref, in, env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in, orig) {
			t.Fatalf("frame %d: processCopy mutated its input", i)
		}
		got, err := fast.ProcessFrameInPlace(append([]byte(nil), in...), env)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: in-place output diverges from processCopy", i)
		}
	}
}

// TestProcessFrameInPlaceDrop: a chain drop is a nil frame and no error.
func TestProcessFrameInPlaceDrop(t *testing.T) {
	pl := NewPipeline(server())
	sg := mkSub(t, "sg0", "ACL") // synthetic rules don't admit 172.16/12
	if err := pl.Add(sg); err != nil {
		t.Fatal(err)
	}
	out, err := pl.ProcessFrameInPlace(encFrame(t, 1, 10, 80), &nf.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Error("dropped packet must return nil frame")
	}
}

// TestPathBindingsSorted: the simulator's dense index builder relies on
// PathBindings enumerating installed paths in deterministic (SPI, SI) order.
func TestPathBindingsSorted(t *testing.T) {
	pl := NewPipeline(server())
	for _, e := range []struct {
		name string
		spi  uint32
		si   uint8
	}{{"c", 3, 4}, {"a", 1, 9}, {"b", 1, 2}} {
		sg := mkSub(t, e.name)
		sg.SPI, sg.EntrySI = e.spi, e.si
		sg.Shares = []CoreShare{{Core: 1, Fraction: 0.3}}
		if err := pl.Add(sg); err != nil {
			t.Fatal(err)
		}
	}
	bs := pl.PathBindings()
	if len(bs) != 3 {
		t.Fatalf("got %d bindings, want 3", len(bs))
	}
	wantOrder := []string{"b", "a", "c"} // (1,2), (1,9), (3,4)
	for i, b := range bs {
		if b.Sub.Name != wantOrder[i] {
			t.Fatalf("binding %d = %s (SPI %d SI %d), want %s", i, b.Sub.Name, b.SPI, b.SI, wantOrder[i])
		}
	}
}
