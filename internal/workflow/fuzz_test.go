package workflow

import (
	"strings"
	"testing"
)

// FuzzParse asserts the parser never panics and that anything it accepts
// survives a render/re-parse round trip.
func FuzzParse(f *testing.F) {
	f.Add("APP_ID 1\n")
	f.Add(onlineProcessing)
	f.Add(climateModeling)
	f.Add(fullWorkflow)
	f.Add("DOMAIN 8 8\nAPP_ID 1\nDECOMP 1 cyclic 2 2\n")
	f.Add(machineAndHalo)
	f.Add("APP_ID 1\nBUNDLE 1 1\n")
	f.Add("PARENT_APPID x CHILD_APPID y\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted input must be internally consistent and re-parseable.
		if len(d.Apps) == 0 {
			t.Fatal("accepted workflow without applications")
		}
		stages, err := d.Stages()
		if err != nil {
			t.Fatalf("accepted workflow has no launch stages: %v", err)
		}
		launched := 0
		for _, stage := range stages {
			launched += len(stage)
		}
		if launched != len(d.Bundles) {
			t.Fatalf("stages %v launch %d of %d bundles", stages, launched, len(d.Bundles))
		}
		if _, err := Parse(strings.NewReader(d.String())); err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, d.String())
		}
	})
}
