package nfspec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// parseByBlocks parses a document one block at a time, as a caller that
// keeps earlier blocks' chains does. It reports ok=false wherever Parse must
// be asked instead: a document that does not split, a block that fails, a
// repeated chain name or no chain at all.
func parseByBlocks(src string) ([]*Chain, bool) {
	blocks, ok := Blocks(nil, src)
	if !ok {
		return nil, false
	}
	var m Macros
	var chains []*Chain
	for _, b := range blocks {
		c, err := m.ParseBlock(b)
		if err != nil {
			return nil, false
		}
		if c == nil {
			continue
		}
		for _, prev := range chains {
			if prev.Name == c.Name {
				return nil, false
			}
		}
		chains = append(chains, c)
	}
	return chains, len(chains) > 0
}

// blockDoc exercises what the splitter must see through: comments and
// strings holding keywords and braces, nested blocks, lets before and
// between chains, a multi-line string.
const blockDoc = `# chain in a comment { let
let RULES = 64
chain a {
  slo { tmin = 1Gbps  tmax = 10Gbps }
  aggregate { src = 10.0.0.0/8 }
  b = BPF(filter = "ip.proto == 17 } chain x {")
  acl = ACL(rules = RULES)
  b -> acl
}
let LIST = ["chain", 'let', "{"]

chain c { u = UrlFilter(block = LIST)  f = IPv4Fwd()
  u -> [weight = 1, filter = "a
b"] f }   # trailing comment
`

// TestBlocksSplit: a document splits into its let and chain blocks, each
// with its text and first line, across comments and strings that hold
// braces, keywords and newlines, and the blocks parse to what the whole
// document parses to — the split lemurd's per-chain parse cache rests on.
func TestBlocksSplit(t *testing.T) {
	blocks, ok := Blocks(nil, blockDoc)
	if !ok {
		t.Fatal("document did not split")
	}
	chainA := blockDoc[strings.Index(blockDoc, "chain a {"):strings.Index(blockDoc, "\nlet LIST")]
	want := []Block{
		{Let: true, Text: "let RULES = 64", Line: 2},
		{Text: chainA, Line: 3},
		{Let: true, Text: `let LIST = ["chain", 'let', "{"]`, Line: 10},
		{Text: "chain c { u = UrlFilter(block = LIST)  f = IPv4Fwd()\n  u -> [weight = 1, filter = \"a\nb\"] f }", Line: 12},
	}
	if !reflect.DeepEqual(blocks, want) {
		t.Fatalf("blocks =\n%+v\nwant\n%+v", blocks, want)
	}
	chains, ok := parseByBlocks(blockDoc)
	whole, err := Parse(blockDoc)
	if !ok || err != nil || !reflect.DeepEqual(chains, whole) {
		t.Fatalf("by blocks ok=%v, Parse err=%v; chains differ", ok, err)
	}
}

func TestBlocksRefusesWhatDoesNotSplit(t *testing.T) {
	for _, src := range []string{
		"",
		"# only a comment\n",
		"x chain a { m = Monitor() }",
		`chain a { m = Monitor(x = "open) }`,
		"chain a { m = Monitor() }}",
		"chain a { m = Monitor()",
	} {
		if blocks, ok := Blocks(nil, src); ok && len(blocks) > 0 {
			t.Errorf("%q split into %+v", src, blocks)
		}
	}
}

// TestParseBlockLines: a block parsed on its own reports the document's
// line numbers, and a block holding more than one definition is refused
// with Parse's text for the stray token.
func TestParseBlockLines(t *testing.T) {
	src := "chain a {\n  m = Monitor()\n}\n\nchain b {\n  m = Monitor()\n  m -> \n}\n"
	blocks, ok := Blocks(nil, src)
	if !ok || len(blocks) != 2 {
		t.Fatalf("blocks = %+v, ok = %v", blocks, ok)
	}
	var m Macros
	if _, err := m.ParseBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	_, blockErr := m.ParseBlock(blocks[1])
	_, docErr := Parse(src)
	if blockErr == nil || docErr == nil || blockErr.Error() != docErr.Error() {
		t.Errorf("block error %v, document error %v", blockErr, docErr)
	}
	_, err := m.ParseBlock(Block{Text: "chain z { m = Monitor() } junk", Line: 7})
	if want := `nfspec: line 7: expected 'chain' or 'let', got "junk"`; err == nil || err.Error() != want {
		t.Errorf("stray token: %v, want %s", err, want)
	}
}

// TestParseByBlocksMatchesParse: over byte-mutated multi-chain documents
// with macros, whenever the documents parse block by block they parse as a
// whole to deep-equal chains — reuse of an unchanged block can never accept
// what Parse rejects or read a chain differently — and the unmutated
// documents always parse block by block.
func TestParseByBlocksMatchesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	agree := 0
	for trial := 0; trial < 2000; trial++ {
		const alphabet = "{}[]()\"'#=,-> \nachinlet0"
		mut := []byte(blockDoc)
		if trial > 0 {
			for k := 0; k < 1+rng.Intn(3); k++ {
				mut[rng.Intn(len(mut))] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		checkBlocksAgree(t, string(mut))
		if _, ok := parseByBlocks(string(mut)); ok {
			agree++
		}
	}
	if agree < 100 {
		t.Fatalf("only %d of 2000 documents parsed block by block; property under-exercised", agree)
	}
}

func checkBlocksAgree(t *testing.T, src string) {
	t.Helper()
	chains, ok := parseByBlocks(src)
	if !ok {
		return
	}
	whole, err := Parse(src)
	if err != nil {
		t.Fatalf("block by block accepted what Parse rejects (%v):\n%s", err, src)
	}
	if !reflect.DeepEqual(chains, whole) {
		t.Fatalf("block by block and Parse disagree on:\n%s", src)
	}
}

// FuzzParseBlocks holds the block-by-block parse to Parse on arbitrary
// documents.
func FuzzParseBlocks(f *testing.F) {
	f.Add(blockDoc)
	f.Add("let R = 4\nchain a { m = ACL(rules = R) }\nlet R = 8\nchain b { m = ACL(rules = R) }")
	f.Add(`chain a { slo { "}" } m = Monitor() }`)
	f.Fuzz(func(t *testing.T, src string) { checkBlocksAgree(t, src) })
}
