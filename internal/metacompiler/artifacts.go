package metacompiler

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"lemur/internal/bess"
	"lemur/internal/hw"
	"lemur/internal/nfgraph"
	"lemur/internal/p4"
	"lemur/internal/placer"
)

// Artifacts carries every generated code text plus the line accounting used
// by the §5.3 "meta-compiler benefits" experiment. The runtime runs the
// deployment's in-memory tables, pipelines and NIC programs; the text is a
// view of them, rendered by (*Deployment).Artifacts on request.
type Artifacts struct {
	// P4Source is the unified switch program (§A.2): merged parser, mangled
	// per-instance tables, steering control.
	P4Source        string
	P4TotalLines    int
	P4SteeringLines int
	// HandwrittenP4Lines counts the standalone NF sources the program was
	// assembled from (the human-authored share).
	HandwrittenP4Lines int

	// BESSScripts maps server name to its generated pipeline script.
	BESSScripts map[string]string
	BESSLines   int

	// EBPFSources maps NIC program name to generated C.
	EBPFSources map[string]string
}

// AutoGeneratedShare returns generated/(generated+handwritten) over the P4
// code — the paper reports roughly a third for the four canonical chains.
func (a *Artifacts) AutoGeneratedShare() float64 {
	total := a.P4TotalLines + a.HandwrittenP4Lines
	if total == 0 {
		return 0
	}
	return float64(a.P4TotalLines) / float64(total)
}

// countLines is the number of lines of generated or library code s.
func countLines(s string) int { return strings.Count(s, "\n") }

// Artifacts renders the deployment's code whole: the unified P4 program,
// every server's BESS script and every SmartNIC program's C. Compile and
// Apply render nothing; they run the checks a render depends on, so a
// render cannot fail. It reads the deployment only, so concurrent calls are
// safe while no Apply runs.
func (d *Deployment) Artifacts() *Artifacts {
	a := &Artifacts{BESSScripts: map[string]string{}, EBPFSources: map[string]string{}}
	d.generateP4(a)
	d.generateBESS(a)
	d.generateEBPF(a)
	return a
}

// switchProgram is what the walk over a placement's switch-resident NF
// instances yields for the unified P4 program.
type switchProgram struct {
	parser      *p4.Graph // the §A.2.1 merge of the instances' parse graphs
	insts       int
	classes     map[string]bool
	handwritten int // lines of the standalone sources, one per instance
}

// mergeSwitchNFs walks the switch-resident NF instances of chains under
// assign in chain order. It refuses a class with no p4.Library program, and
// then a §A.2.1 parser conflict: both are compile-time rejections, which
// Compile and Apply make before they install anything.
func mergeSwitchNFs(chains []*nfgraph.Graph, assign map[*nfgraph.Node]placer.Assign) (*switchProgram, error) {
	sw := &switchProgram{parser: p4.NewGraph(), classes: map[string]bool{}}
	var mergeErr error
	for _, g := range chains {
		for _, n := range g.Order {
			if asg, ok := assign[n]; !ok || asg.Platform != hw.PISA {
				continue
			}
			class := n.Meta.Class // canonical name (resolves the BPF alias)
			lib, ok := p4.Library[class]
			if !ok {
				return nil, fmt.Errorf("metacompiler: no P4 library program for %s", class)
			}
			sw.insts++
			sw.classes[class] = true
			sw.handwritten += countLines(p4.LibrarySource(class))
			if err := sw.parser.Merge(lib.Parser); err != nil && mergeErr == nil {
				mergeErr = fmt.Errorf("metacompiler: %w", err)
			}
		}
	}
	if mergeErr != nil {
		return nil, mergeErr
	}
	return sw, nil
}

// generateP4 assembles the unified switch program: §A.2.1 parser merging
// over the NF-local parse graphs of every switch-resident NF, name-mangled
// tables, and a steering control section reflecting the installed (SPI, SI)
// entries.
func (d *Deployment) generateP4(a *Artifacts) {
	sw, err := mergeSwitchNFs(d.Input.Chains, d.Result.Assign)
	if err != nil {
		// Compile and Apply refused this placement before installing it.
		panic(err)
	}
	a.HandwrittenP4Lines = sw.handwritten
	var b strings.Builder
	b.WriteString("// Unified P4 program generated by the Lemur meta-compiler.\n")
	b.WriteString("// NF instances: ")
	writeInt(&b, sw.insts)
	b.WriteString(", classes: ")
	writeInt(&b, len(sw.classes))
	b.WriteString("\n\n")

	// NSH parsing is always part of the unified parser when any chain
	// leaves the switch.
	hdrs := append(sw.parser.Headers(), "nsh")
	sort.Strings(hdrs)
	seenHdr := map[string]bool{}
	for _, h := range hdrs {
		if seenHdr[h] {
			continue
		}
		seenHdr[h] = true
		lib := p4.HeaderLibrary[h]
		write(&b, "header ", h, "_t {\n")
		for _, f := range lib {
			b.WriteString("    bit<")
			writeInt(&b, f.Bits)
			write(&b, "> ", f.Name, ";\n")
		}
		b.WriteString("}\n")
	}

	b.WriteString("\nparser unified_parser {\n")
	for _, name := range sortedKeys(sw.parser.States) {
		st := sw.parser.States[name]
		write(&b, "  state parse_", name, " {\n    extract(", st.Header, ");\n")
		if st.SelectField != "" {
			write(&b, "    select(", st.Header, ".", st.SelectField, ") {\n")
			for _, tr := range st.Transitions {
				write(&b, "      ", tr.Value, ": parse_", tr.Next, ";\n")
			}
			b.WriteString("    }\n")
		} else if len(st.Transitions) > 0 {
			write(&b, "    transition parse_", st.Transitions[0].Next, ";\n")
		} else {
			b.WriteString("    transition accept;\n")
		}
		b.WriteString("  }\n")
	}
	b.WriteString("}\n\n")

	// Per-instance tables, chain by chain.
	for _, g := range d.Input.Chains {
		d.writeTables(&b, g)
	}

	// Steering control: classifier + per-(SPI,SI) apply blocks. These lines
	// are the auto-generated packet-steering share the paper quantifies.
	steeringFrom := b.Len()
	b.WriteString("\ncontrol chain_steering {\n")
	b.WriteString("  table classify { keys = { ipv4.src, ipv4.dst } actions = { set_path } }\n")
	var keys []entryKey
	for ci := range d.Input.Chains {
		keys = d.writeSteering(&b, ci, keys[:0])
	}
	b.WriteString("}\n")

	a.P4Source = b.String()
	a.P4TotalLines = countLines(a.P4Source)
	a.P4SteeringLines = countLines(a.P4Source[steeringFrom:])
}

// writeTables renders the tables of chain g's switch-resident NFs from the
// P4 library, each named <chain>_<node>_<table> to keep NF instances unique
// in the unified program.
func (d *Deployment) writeTables(b *strings.Builder, g *nfgraph.Graph) {
	for _, n := range g.Order {
		if asg, ok := d.Result.Assign[n]; !ok || asg.Platform != hw.PISA {
			continue
		}
		for _, t := range p4.Library[n.Meta.Class].Tables {
			write(b, "table ", g.Chain.Name, "_", n.Name(), "_", t.Name, " {\n  keys = { ")
			writeJoined(b, t.Keys, ", ")
			b.WriteString(" }\n  actions = { ")
			writeJoined(b, t.Actions, ", ")
			b.WriteString(" }\n  size = ")
			writeInt(b, t.Size)
			b.WriteString(";\n}\n")
		}
	}
}

// entryKey is one installed switch entry's (SPI, SI).
type entryKey struct {
	spi uint32
	si  uint8
}

// writeSteering renders chain slot ci's switch entries in (SPI, SI) order,
// collecting their keys in keys, which it returns for reuse.
func (d *Deployment) writeSteering(b *strings.Builder, ci int, keys []entryKey) []entryKey {
	for _, sp := range d.ChainPaths[ci] {
		for si := 0; si <= sp.Length(); si++ {
			if d.Switch.Entry(sp.SPI, uint8(si)) != nil {
				keys = append(keys, entryKey{sp.SPI, uint8(si)})
			}
		}
	}
	slices.SortFunc(keys, func(x, y entryKey) int {
		if x.spi != y.spi {
			return cmp.Compare(x.spi, y.spi)
		}
		return cmp.Compare(x.si, y.si)
	})
	for _, k := range keys {
		e := d.Switch.Entry(k.spi, k.si)
		b.WriteString("  if (nsh.spi == ")
		writeInt(b, int(k.spi))
		b.WriteString(" && nsh.si == ")
		writeInt(b, int(k.si))
		b.WriteString(") {\n")
		for _, fn := range e.Apply {
			b.WriteString("    apply(")
			writeIdent(b, fn.Name())
			b.WriteString(");\n")
		}
		if e.AdvanceSI > 0 {
			b.WriteString("    nsh.si = nsh.si - ")
			writeInt(b, int(e.AdvanceSI))
			b.WriteString("; // consolidated SI update\n")
		}
		for _, br := range e.Branches {
			b.WriteString("    branch -> spi=")
			writeInt(b, int(br.SPI))
			b.WriteString(" si=")
			writeInt(b, int(br.SI))
			b.WriteString(";\n")
		}
		if e.Encap {
			b.WriteString("    nsh_encap();\n")
		}
		if e.Decap {
			b.WriteString("    nsh_decap();\n")
		}
		write(b, "    forward(", e.Out.Kind.String(), ", ", strconv.Quote(e.Out.Target), ");\n")
		b.WriteString("  }\n")
	}
	return keys
}

// generateBESS renders per-server pipeline scripts: shared PortInc/NSHdecap
// demux, per-subgroup module chains, NSHencap mux, and the scheduler tree
// (§A.1).
func (d *Deployment) generateBESS(a *Artifacts) {
	slacks := d.DeadlineSlacks()
	for _, name := range sortedKeys(d.Pipelines) {
		pl := d.Pipelines[name]
		if len(pl.Subgroups()) == 0 {
			continue
		}
		var b strings.Builder
		write(&b, "# BESS pipeline for ", name, ", generated by the Lemur meta-compiler\n")
		b.WriteString("port0 = PMDPort(port_id=0)\n")
		b.WriteString("inc   = PortInc(port=port0)\n")
		b.WriteString("demux = NSHdecap()\n")
		b.WriteString("mux   = NSHencap()\n")
		b.WriteString("out   = PortOut(port=port0)\n")
		b.WriteString("inc -> demux\nmux -> out\n\n")
		for _, sg := range pl.Subgroups() {
			for _, fn := range sg.NFs {
				writeIdent(&b, fn.Name())
				write(&b, " = ", fn.Class(), "()\n")
			}
			b.WriteString("demux:")
			writeInt(&b, int(sg.EntrySI))
			for _, fn := range sg.NFs {
				b.WriteString(" -> ")
				writeIdent(&b, fn.Name())
			}
			b.WriteString(" -> mux  # spi=")
			writeInt(&b, int(sg.SPI))
			b.WriteString(" si=")
			writeInt(&b, int(sg.EntrySI))
			b.WriteString(" advance=")
			writeInt(&b, int(sg.AdvanceSI))
			b.WriteString("\n")
		}
		b.WriteString("\n# scheduler\n")
		bess.WriteSchedulers(&b, pl, d.rateCaps(name), d.subgroupSlacks(name, slacks))
		a.BESSScripts[name] = b.String()
		a.BESSLines += countLines(b.String())
	}
}

// rateCaps derives per-subgroup rate limits from chain t_max values
// (scheduler-enforced burst caps, §4.2).
func (d *Deployment) rateCaps(server string) map[string]float64 {
	caps := make(map[string]float64, len(d.Pipelines[server].Subgroups()))
	for sub, psg := range d.SubgroupOf {
		if psg.Server != server {
			continue
		}
		tmax := d.Input.Chains[psg.ChainIdx].Chain.SLO.TMaxBps
		if tmax < 1e300 {
			caps[sub.Name] = tmax * psg.Weight
		}
	}
	return caps
}

// generateEBPF renders C sources for the SmartNIC programs.
func (d *Deployment) generateEBPF(a *Artifacts) {
	for ci := range d.Input.Chains {
		g := d.Input.Chains[ci]
		for _, n := range g.Order {
			asg, ok := d.Result.Assign[n]
			if !ok || asg.Platform != hw.SmartNIC {
				continue
			}
			var b strings.Builder
			name := g.Chain.Name + "_" + n.Name()
			fmt.Fprintf(&b, "// XDP program for NF %s (%s), generated by the Lemur meta-compiler.\n", n.Name(), n.Class())
			fmt.Fprintf(&b, "// Constraints: <=4096 insns, 512B stack, no calls, no back edges (loops unrolled).\n")
			fmt.Fprintf(&b, "SEC(\"xdp\")\n")
			b.WriteString("int xdp_")
			writeIdent(&b, name)
			b.WriteString("(struct xdp_md *ctx) {\n")
			fmt.Fprintf(&b, "    void *data = (void *)(long)ctx->data;\n")
			fmt.Fprintf(&b, "    void *data_end = (void *)(long)ctx->data_end;\n")
			fmt.Fprintf(&b, "    struct ethhdr *eth = data;\n")
			fmt.Fprintf(&b, "    if ((void *)(eth + 1) > data_end) return XDP_DROP;\n")
			fmt.Fprintf(&b, "    /* inlined %s body: ~%d instructions after unrolling */\n",
				n.Class(), n.Meta.EBPFInstructions)
			fmt.Fprintf(&b, "    return XDP_PASS;\n}\n")
			a.EBPFSources[name] = b.String()
		}
	}
}

// writeIdent appends NF instance name s to b as an identifier of the
// generated languages: '/', '-' and '.' become '_'.
func writeIdent(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '/', '-', '.':
			b.WriteByte('_')
		default:
			b.WriteByte(c)
		}
	}
}

// The generators append to the one builder they own: a line formatted
// through fmt boxes every argument, and a fleet's worth of programs is a
// great many lines.

func write(b *strings.Builder, parts ...string) {
	for _, p := range parts {
		b.WriteString(p)
	}
}

func writeInt(b *strings.Builder, n int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(n), 10))
}

func writeJoined(b *strings.Builder, parts []string, sep string) {
	for i, p := range parts {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(p)
	}
}
