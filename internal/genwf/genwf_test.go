package genwf

import (
	"reflect"
	"strings"
	"testing"

	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/workflow"
)

func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.GoLiteral() != b.GoLiteral() {
			t.Fatalf("seed %d: two derivations differ:\n%s\nvs\n%s", seed, a.GoLiteral(), b.GoLiteral())
		}
	}
	if Generate(1).GoLiteral() == Generate(2).GoLiteral() {
		t.Fatal("distinct seeds produced identical scenarios")
	}
}

func TestGenerateValid(t *testing.T) {
	modes := map[string]bool{}
	for seed := uint64(0); seed < 300; seed++ {
		sc := Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sc.GoLiteral())
		}
		if sc.Sequential {
			modes["seq"] = true
		} else {
			modes["conc"] = true
		}
		if sc.Faults != "" {
			modes["faults"] = true
		}
		if sc.Ghost > 0 {
			modes["ghost"] = true
		}
		if sc.Restage {
			modes["restage"] = true
		}
		if sc.Mapping == ClientDataCentric || sc.Mapping == ServerDataCentric {
			modes["data-centric"] = true
		}
		if len(sc.Domain) == 3 {
			modes["3d"] = true
		}
	}
	for _, m := range []string{"seq", "conc", "faults", "ghost", "restage", "data-centric", "3d"} {
		if !modes[m] {
			t.Errorf("300 seeds never produced a %s scenario", m)
		}
	}
}

// TestFamiliesValidate: every family a conformance sweep draws from yields
// only scenarios Validate accepts, over twenty times the seeds a default
// sweep runs — a pinning that contradicts a pairing rule fails here, not
// on the one sweep seed that happens to reach it.
func TestFamiliesValidate(t *testing.T) {
	families := map[string]func(uint64) Scenario{
		"Generate": Generate, "GenerateStreaming": GenerateStreaming,
		"GenerateFaulty": GenerateFaulty, "GenerateElastic": GenerateElastic,
		"GenerateRemap": GenerateRemap, "GenerateStreamingKills": GenerateStreamingKills,
	}
	for name, gen := range families {
		for seed := uint64(1); seed <= 240; seed++ {
			if sc := gen(seed); sc.Validate() != nil {
				t.Errorf("%s(%d): %v\n%s", name, seed, sc.Validate(), sc.GoLiteral())
			}
		}
	}
}

func TestValidateRejectsBadPairings(t *testing.T) {
	base := Generate(7)
	bad := base.Clone()
	bad.Sequential = false
	bad.Mapping = ClientDataCentric
	bad.Restage = false
	if err := bad.Validate(); err == nil {
		t.Error("concurrent client-data-centric accepted")
	}
	bad = base.Clone()
	bad.Sequential = true
	bad.Mapping = ServerDataCentric
	if err := bad.Validate(); err == nil {
		t.Error("sequential server-data-centric accepted")
	}
	bad = base.Clone()
	bad.Faults = `{"rules": []}`
	bad.Retry = 0
	if err := bad.Validate(); err == nil {
		t.Error("fault plan without retry budget accepted")
	}
	bad = base.Clone()
	bad.Sequential = false
	bad.Restage = true
	if bad.Mapping == ClientDataCentric {
		bad.Mapping = Consecutive
	}
	if err := bad.Validate(); err == nil {
		t.Error("concurrent restage accepted")
	}
}

func TestFillDeterministicAndSeedSensitive(t *testing.T) {
	a := Scenario{Seed: 1}
	b := Scenario{Seed: 2}
	p := []int{3, 4}
	if a.Fill("u", 0, p) != a.Fill("u", 0, p) {
		t.Fatal("fill not deterministic")
	}
	if a.Fill("u", 0, p) == b.Fill("u", 0, p) &&
		a.Fill("u", 1, p) == b.Fill("u", 1, p) {
		t.Fatal("fill ignores seed")
	}
	if a.Fill("u", 0, p) == a.Fill("w", 0, p) {
		t.Fatal("fill ignores variable")
	}
	if a.Fill("u", 0, p) == a.Fill("u", 1, p) {
		t.Fatal("fill ignores version")
	}
}

func TestShrinkReachesMinimalScenario(t *testing.T) {
	// A predicate that only cares about sequential coupling: everything
	// else must shrink away to its floor.
	var sc Scenario
	for seed := uint64(0); ; seed++ {
		sc = Generate(seed)
		if sc.Sequential && len(sc.Domain) > 1 {
			break
		}
	}
	fails := func(c Scenario) bool { return c.Sequential }
	min := Shrink(sc, fails)
	if err := min.Validate(); err != nil {
		t.Fatalf("shrunk scenario invalid: %v", err)
	}
	if !min.Sequential {
		t.Fatal("shrinking lost the failing property")
	}
	if len(min.Domain) != 1 {
		t.Errorf("domain not reduced to 1-D: %v", min.Domain)
	}
	if min.Versions != 1 || min.Vars != 1 || min.Ghost != 0 || min.Faults != "" ||
		min.Restage || min.Mapping != Consecutive ||
		min.ProdKind != decomp.Blocked || min.ConsKind != decomp.Blocked {
		t.Errorf("not fully shrunk:\n%s", min.GoLiteral())
	}
	if min.Nodes != 1 || min.CoresPerNode != 1 {
		t.Errorf("machine not minimal: %dx%d", min.Nodes, min.CoresPerNode)
	}
	// Deterministic: shrinking again yields the identical scenario.
	again := Shrink(sc, fails)
	if min.GoLiteral() != again.GoLiteral() {
		t.Fatalf("shrink not deterministic:\n%s\nvs\n%s", min.GoLiteral(), again.GoLiteral())
	}
	// And the minimum is a fixpoint.
	if fix := Shrink(min, fails); fix.GoLiteral() != min.GoLiteral() {
		t.Fatalf("minimum is not a fixpoint:\n%s", fix.GoLiteral())
	}
}

func TestPrinters(t *testing.T) {
	sc := Generate(42)
	lit := sc.GoLiteral()
	for _, want := range []string{"genwf.Scenario{", "Seed: 0x", "Domain: []int{", "Mapping: genwf."} {
		if !strings.Contains(lit, want) {
			t.Errorf("GoLiteral missing %q:\n%s", want, lit)
		}
	}
	dag := sc.DAG()
	if !strings.Contains(dag, "APP_ID 1") || !strings.Contains(dag, "APP_ID 2") {
		t.Errorf("DAG missing app declarations:\n%s", dag)
	}
	if sc.Sequential && !strings.Contains(dag, "PARENT_APPID 1 CHILD_APPID 2") {
		t.Errorf("sequential DAG missing edge:\n%s", dag)
	}
	if !sc.Sequential && !strings.Contains(dag, "BUNDLE 1 2") {
		t.Errorf("concurrent DAG missing bundle:\n%s", dag)
	}
	for _, line := range strings.Split(strings.TrimSpace(dag), "\n") {
		directive, _, _ := strings.Cut(line, " ")
		switch directive {
		case "APP_ID", "PARENT_APPID", "BUNDLE", "DOMAIN", "DECOMP":
		default:
			if !strings.HasPrefix(line, "#") {
				t.Errorf("unexpected DAG line %q", line)
			}
		}
	}
}

// TestDAGDescribesTheRun: a repro is a run description — parsing it
// rebuilds both decompositions exactly, domain, kind, grid and block, and
// a BLOCK clause appears only where it is read.
func TestDAGDescribesTheRun(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		sc := Generate(seed)
		d, err := workflow.Parse(strings.NewReader(sc.DAG()))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sc.DAG())
		}
		got, err := d.Decompositions()
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sc.DAG())
		}
		for app, build := range map[int]func() (*decomp.Decomposition, error){1: sc.ProdDecomp, 2: sc.ConsDecomp} {
			want, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[app], want) {
				t.Fatalf("seed %d app %d: DAG rebuilds %v, scenario has %v\n%s", seed, app, got[app], want, sc.DAG())
			}
		}
	}
}
