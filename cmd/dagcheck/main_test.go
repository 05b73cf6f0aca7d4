package main

import (
	"errors"
	"strings"
	"testing"
)

// TestRunGolden: dagcheck prints the machine shape and halo, then one line
// per launch stage, each bundle's apps in the order the runtime launches
// them. On Listing 1 the
// atmosphere runs alone and land and sea-ice run together; with app 3
// independent it launches beside app 1, and app 2 runs after them.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct{ file, want string }{
		{"../../testdata/chaos.dag", `valid workflow: 3 applications, 2 dependencies, 3 bundles
  machine: 6 nodes x 4 cores, halo 1
  bundle 0: apps [1]
  bundle 1: apps [2]
  bundle 2: apps [3]
stage 1: [1]
stage 2: [2] [3]

canonical form:
MACHINE 6 4
HALO 1
DOMAIN 32 32
APP_ID 1
APP_ID 2
APP_ID 3
DECOMP 1 blocked 4 4
DECOMP 2 blocked 2 2
DECOMP 3 blocked 2 2
PARENT_APPID 1 CHILD_APPID 2
PARENT_APPID 1 CHILD_APPID 3
BUNDLE 1
BUNDLE 2
BUNDLE 3
`},
		{"../../testdata/independent.dag", `valid workflow: 3 applications, 1 dependencies, 3 bundles
  machine: 6 nodes x 4 cores, halo 1
  bundle 0: apps [1]
  bundle 1: apps [2]
  bundle 2: apps [3]
stage 1: [1] [3]
stage 2: [2]

canonical form:
MACHINE 6 4
HALO 1
DOMAIN 32 32
APP_ID 1
APP_ID 2
APP_ID 3
DECOMP 1 blocked 4 4
DECOMP 2 blocked 2 2
DECOMP 3 blocked 2 2
PARENT_APPID 1 CHILD_APPID 2
BUNDLE 1
BUNDLE 2
BUNDLE 3
`},
	} {
		var out strings.Builder
		if err := run([]string{tc.file}, &out); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if out.String() != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.file, out.String(), tc.want)
		}
	}
}

func TestRunRefuses(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); !errors.Is(err, errUsage) {
		t.Errorf("no argument: %v, want the usage error", err)
	}
	if err := run([]string{"does-not-exist.dag"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed %q", out.String())
	}
}
