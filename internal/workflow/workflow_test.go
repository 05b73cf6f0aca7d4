package workflow

import (
	"reflect"
	"strings"
	"testing"
)

const onlineProcessing = `
# Online Data Processing Workflow
# Simulation code has appid=1
APP_ID 1
APP_ID 2

BUNDLE 1 2
`

const climateModeling = `
# Climate Modeling Workflow
APP_ID 1
APP_ID 2
APP_ID 3
PARENT_APPID 1 CHILD_APPID 2
PARENT_APPID 1 CHILD_APPID 3
BUNDLE 1
BUNDLE 2
BUNDLE 3
`

func TestParseOnlineProcessing(t *testing.T) {
	d, err := Parse(strings.NewReader(onlineProcessing))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Apps) != 2 || len(d.Bundles) != 1 || len(d.Edges) != 0 {
		t.Fatalf("parsed %+v", d)
	}
	if d.Bundles[0][0] != 1 || d.Bundles[0][1] != 2 {
		t.Fatalf("bundle = %v", d.Bundles[0])
	}
}

func TestParseClimateModeling(t *testing.T) {
	d, err := Parse(strings.NewReader(climateModeling))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Apps) != 3 || len(d.Bundles) != 3 || len(d.Edges) != 2 {
		t.Fatalf("parsed %+v", d)
	}
	if got := d.Parents(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Parents(2) = %v", got)
	}
}

func TestImplicitSingletonBundles(t *testing.T) {
	d, err := Parse(strings.NewReader("APP_ID 5\nAPP_ID 6\nBUNDLE 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bundles) != 2 {
		t.Fatalf("bundles = %v", d.Bundles)
	}
	if d.Bundles[1][0] != 6 {
		t.Fatalf("implicit bundle = %v", d.Bundles[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad directive", "FROB 1\n"},
		{"bad app id", "APP_ID x\n"},
		{"app id arity", "APP_ID 1 2\n"},
		{"dup app", "APP_ID 1\nAPP_ID 1\n"},
		{"edge syntax", "APP_ID 1\nPARENT_APPID 1 KID 2\n"},
		{"edge unknown parent", "APP_ID 1\nPARENT_APPID 9 CHILD_APPID 1\n"},
		{"edge unknown child", "APP_ID 1\nPARENT_APPID 1 CHILD_APPID 9\n"},
		{"self edge", "APP_ID 1\nPARENT_APPID 1 CHILD_APPID 1\n"},
		{"bundle empty", "APP_ID 1\nBUNDLE\n"},
		{"bundle unknown", "APP_ID 1\nBUNDLE 2\n"},
		{"bundle dup membership", "APP_ID 1\nBUNDLE 1\nBUNDLE 1\n"},
		{"intra bundle edge", "APP_ID 1\nAPP_ID 2\nPARENT_APPID 1 CHILD_APPID 2\nBUNDLE 1 2\n"},
		{"cycle", "APP_ID 1\nAPP_ID 2\nPARENT_APPID 1 CHILD_APPID 2\nPARENT_APPID 2 CHILD_APPID 1\n"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	d, err := Parse(strings.NewReader(climateModeling))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(strings.NewReader(d.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, d.String())
	}
	if len(d2.Apps) != len(d.Apps) || len(d2.Edges) != len(d.Edges) || len(d2.Bundles) != len(d.Bundles) {
		t.Fatalf("round trip lost structure: %+v vs %+v", d, d2)
	}
}

func TestNewProgrammatic(t *testing.T) {
	d, err := New([]int{1, 2}, [][2]int{{1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Bundles) != 2 {
		t.Fatalf("bundles = %v", d.Bundles)
	}
	if _, err := New(nil, nil, nil); err == nil {
		t.Fatal("empty app list accepted")
	}
}

// TestStages: a bundle launches in the first wave after every bundle it
// depends on; within a wave each multi-application bundle is a stage of
// its own, in index order, then one stage holds every single-application
// bundle. Stages are bundle indices.
func TestStages(t *testing.T) {
	for _, tc := range []struct {
		name    string
		apps    []int
		edges   [][2]int
		bundles [][]int
		want    [][]int // nil: a cycle, refused
	}{
		{"chain", []int{1, 2, 3}, [][2]int{{1, 2}, {2, 3}}, nil, [][]int{{0}, {1}, {2}}},
		{"independent app", []int{1, 2, 3}, [][2]int{{1, 2}}, nil, [][]int{{0, 2}, {1}}},
		{"bundle beside single", []int{1, 2, 3}, nil, [][]int{{3}, {1, 2}},
			[][]int{{1}, {0}}},
		{"two bundles in a wave", []int{1, 2, 3, 4, 5}, [][2]int{{1, 5}}, [][]int{{3, 4}, {1, 2}},
			[][]int{{0}, {1}, {2}}},
		{"cycle", []int{1, 2, 3}, [][2]int{{1, 2}, {2, 3}, {3, 2}}, nil, nil},
	} {
		if tc.want == nil {
			if _, err := New(tc.apps, tc.edges, tc.bundles); err == nil {
				t.Errorf("%s: New accepted a cycle", tc.name)
			}
			// Stages is the cycle check itself: build the singleton
			// bundles by hand and ask it directly.
			d := &DAG{Apps: tc.apps, Edges: tc.edges}
			for _, a := range tc.apps {
				d.Bundles = append(d.Bundles, []int{a})
			}
			if got, err := d.Stages(); err == nil {
				t.Errorf("%s: Stages = %v, want a cycle error", tc.name, got)
			}
			continue
		}
		d, err := New(tc.apps, tc.edges, tc.bundles)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := d.Stages()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Stages = %v, want %v (bundles %v)", tc.name, got, tc.want, d.Bundles)
		}
	}
}

// TestEngineLifecycle: Listing 1 enacts in two stages, the atmosphere
// alone and then land and sea-ice together, and every bundle launches
// exactly once.
func TestEngineLifecycle(t *testing.T) {
	d, err := Parse(strings.NewReader(climateModeling))
	if err != nil {
		t.Fatal(err)
	}
	stages, err := d.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0}, {1, 2}}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("Stages = %v, want %v", stages, want)
	}
	launched := map[int]int{}
	for _, st := range stages {
		for _, b := range st {
			launched[b]++
		}
	}
	for b := range d.Bundles {
		if launched[b] != 1 {
			t.Errorf("bundle %d launched %d times", b, launched[b])
		}
	}
}

// TestDiamondDependency: on 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4 the bottom
// launches only after both middles, which share a stage.
func TestDiamondDependency(t *testing.T) {
	d, err := New([]int{1, 2, 3, 4}, [][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stages, err := d.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0}, {1, 2}, {3}}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("Stages = %v, want %v (bundles %v)", stages, want, d.Bundles)
	}
}

const fullWorkflow = `
DOMAIN 32 32 32
APP_ID 1
APP_ID 2
DECOMP 1 blocked 4 4 2
DECOMP 2 block-cyclic 2 2 2 BLOCK 4 4 4
BUNDLE 1 2
`

func TestParseDomainAndDecomps(t *testing.T) {
	d, err := Parse(strings.NewReader(fullWorkflow))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Domain) != 3 || d.Domain[0] != 32 {
		t.Fatalf("Domain = %v", d.Domain)
	}
	if len(d.Decomps) != 2 {
		t.Fatalf("Decomps = %v", d.Decomps)
	}
	spec := d.Decomps[2]
	if len(spec.Block) != 3 || spec.Block[0] != 4 {
		t.Fatalf("block spec = %+v", spec)
	}
	decomps, err := d.Decompositions()
	if err != nil {
		t.Fatal(err)
	}
	if decomps[1].NumTasks() != 32 || decomps[2].NumTasks() != 8 {
		t.Fatalf("task counts = %d, %d", decomps[1].NumTasks(), decomps[2].NumTasks())
	}
	// Round trip through String.
	d2, err := Parse(strings.NewReader(d.String()))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, d.String())
	}
	if len(d2.Decomps) != 2 || d2.Domain == nil {
		t.Fatalf("round trip lost decomp info: %+v", d2)
	}
}

func TestParseDecompErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		at   string // the line the refusal must name, when the parser knows it
	}{
		{"domain twice", "DOMAIN 8 8\nDOMAIN 8 8\nAPP_ID 1\n", ""},
		{"domain empty", "DOMAIN\nAPP_ID 1\n", ""},
		{"domain garbage", "DOMAIN x\nAPP_ID 1\n", ""},
		{"decomp arity", "APP_ID 1\nDECOMP 1 blocked\n", ""},
		{"decomp bad id", "APP_ID 1\nDECOMP x blocked 2\n", ""},
		{"decomp bad kind", "APP_ID 1\nDECOMP 1 fancy 2\n", ""},
		{"decomp undeclared app", "APP_ID 1\nDECOMP 2 blocked 2\n", ""},
		{"decomp twice", "APP_ID 1\nDECOMP 1 blocked 2\nDECOMP 1 blocked 2\n", ""},
		{"decomp grid rank", "DOMAIN 8 8\nAPP_ID 1\nDECOMP 1 blocked 2\n", ""},
		{"block rank", "APP_ID 1\nDECOMP 1 block-cyclic 2 2 BLOCK 4\n", ""},
		{"bad grid int", "APP_ID 1\nDECOMP 1 blocked a b\n", ""},
		{"block on cyclic", "APP_ID 1\nDECOMP 1 cyclic 2 1 BLOCK 3 3\n", "line 2:"},
		{"block on blocked", "APP_ID 1\nDECOMP 1 blocked 2 2 BLOCK 1 1\n", "line 2:"},
		{"empty block", "APP_ID 1\nDECOMP 1 blocked 2 2 BLOCK\n", "line 2:"},
		{"empty block-cyclic block", "APP_ID 1\nDECOMP 1 block-cyclic 2 2 BLOCK\n", "line 2:"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.at) {
			t.Errorf("%s: %v does not name %q", c.name, err, c.at)
		}
	}
}

const machineAndHalo = `
MACHINE 6 4
HALO 2
DOMAIN 8 8
APP_ID 1
DECOMP 1 blocked 2 2
`

// TestParseMachineAndHalo: MACHINE and HALO declare the machine shape and
// the stencil ghost width, survive the canonical form, and a file without
// HALO exchanges nothing. A malformed or repeated directive is refused
// with its line.
func TestParseMachineAndHalo(t *testing.T) {
	d, err := Parse(strings.NewReader(machineAndHalo))
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes != 6 || d.CoresPerNode != 4 || d.Halo != 2 {
		t.Fatalf("MACHINE %d %d, HALO %d; want 6 4, 2", d.Nodes, d.CoresPerNode, d.Halo)
	}
	d2, err := Parse(strings.NewReader(d.String()))
	if err != nil || d2.Nodes != 6 || d2.CoresPerNode != 4 || d2.Halo != 2 {
		t.Fatalf("round trip: %+v, %v\n%s", d2, err, d.String())
	}
	if d, err := Parse(strings.NewReader("APP_ID 1\nHALO 0\n")); err != nil || d.Halo != 0 || d.Nodes != 0 {
		t.Fatalf("HALO 0 without MACHINE: %+v, %v", d, err)
	}
	for _, c := range []struct{ name, in, at string }{
		{"machine missing field", "APP_ID 1\nMACHINE 6\n", "line 2:"},
		{"machine extra field", "APP_ID 1\nMACHINE 6 4 2\n", "line 2:"},
		{"machine zero nodes", "APP_ID 1\nMACHINE 0 4\n", "line 2:"},
		{"machine zero cores", "APP_ID 1\nMACHINE 6 0\n", "line 2:"},
		{"machine negative nodes", "APP_ID 1\nMACHINE -1 4\n", "line 2:"},
		{"machine negative cores", "APP_ID 1\nMACHINE 6 -4\n", "line 2:"},
		{"machine not a number", "APP_ID 1\nMACHINE six 4\n", "line 2:"},
		{"machine twice", "MACHINE 6 4\nAPP_ID 1\nMACHINE 6 4\n", "line 3:"},
		{"halo missing field", "APP_ID 1\nHALO\n", "line 2:"},
		{"halo extra field", "APP_ID 1\nHALO 1 1\n", "line 2:"},
		{"halo negative", "APP_ID 1\nHALO -1\n", "line 2:"},
		{"halo twice", "HALO 0\nAPP_ID 1\nHALO 0\n", "line 3:"},
	} {
		if _, err := Parse(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.at) {
			t.Errorf("%s: %v does not name %q", c.name, err, c.at)
		}
	}
}
