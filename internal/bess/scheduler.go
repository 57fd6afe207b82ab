package bess

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// The paper (§A.1.3) uses BESS's hierarchical scheduler: a per-core tree of
// logical interior nodes (policies) and physical leaves (subgroup
// instances). The meta-compiler emits one round-robin root per core over the
// subgroups sharing it, with rate-limit nodes enforcing t_max. Cores hosting
// a chain with a latency deadline get an earliest-deadline-first root
// instead (Wang et al.): children ordered by per-chain slack — the chain's
// d_max minus the best-case delay accumulated upstream of the subgroup — so
// the subgroup closest to blowing its deadline is always served first.

// WriteSchedulers appends the per-core scheduler trees of pl's core shares
// to b in tc-like indentation, the scheduler section of the generated BESS
// script. Each used core, in core order, gets a round_robin root over the
// subgroups sharing it in pipeline order; a subgroup with a rate cap sits
// under a rate_limit node. rateCaps maps subgroup name -> bps cap (0/absent
// = uncapped). slackSec maps subgroup name -> deadline slack seconds (chain
// d_max minus best-case upstream delay; absent = the owning chain has no
// deadline). A core where at least one resident subgroup carries slack gets
// a deadline_edf root instead, its children ordered by ascending slack
// (name as the tie-break) with deadline-free residents after them in name
// order, and each slack printed on its subgroup line. A nil or empty
// slackSec gives round-robin trees throughout. The text is deterministic
// and written piecewise, not formatted through fmt.
func WriteSchedulers(b *strings.Builder, pl *Pipeline, rateCaps, slackSec map[string]float64) {
	// One use per core share, in core order and pipeline order within a core.
	type use struct {
		core int
		sg   *Subgroup
	}
	var uses []use
	for _, sg := range pl.Subgroups() {
		for _, s := range sg.Shares {
			uses = append(uses, use{s.Core, sg})
		}
	}
	slices.SortStableFunc(uses, func(a, b use) int { return cmp.Compare(a.core, b.core) })
	var num [32]byte
	for i := 0; i < len(uses); {
		j := i + 1
		for j < len(uses) && uses[j].core == uses[i].core {
			j++
		}
		subs := uses[i:j]
		edf := slices.ContainsFunc(subs, func(u use) bool {
			_, ok := slackSec[u.sg.Name]
			return ok
		})
		if edf {
			slices.SortStableFunc(subs, func(a, b use) int {
				sa, aok := slackSec[a.sg.Name]
				sb, bok := slackSec[b.sg.Name]
				switch {
				case aok != bok: // deadline-bearing first
					if aok {
						return -1
					}
					return 1
				case aok && sa != sb: // most urgent (least slack) first
					if sa < sb {
						return -1
					}
					return 1
				}
				return strings.Compare(a.sg.Name, b.sg.Name)
			})
		}
		b.WriteString("core ")
		b.Write(strconv.AppendInt(num[:0], int64(uses[i].core), 10))
		b.WriteString(":\n")
		if edf {
			b.WriteString("  deadline_edf\n")
		} else {
			b.WriteString("  round_robin\n")
		}
		for _, u := range subs {
			indent := "    "
			if c, ok := rateCaps[u.sg.Name]; ok && c > 0 {
				b.WriteString("    rate_limit ")
				b.Write(strconv.AppendFloat(num[:0], c, 'f', 0, 64))
				b.WriteString(" bps\n")
				indent = "      "
			}
			b.WriteString(indent)
			b.WriteString("subgroup ")
			b.WriteString(u.sg.Name)
			if s, ok := slackSec[u.sg.Name]; ok {
				b.WriteString(" slack ")
				b.Write(strconv.AppendFloat(num[:0], s*1e6, 'f', 1, 64))
				b.WriteString("us")
			}
			b.WriteString("\n")
		}
		i = j
	}
}
