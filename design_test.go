package cods_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignInventoryListsEveryPackage holds DESIGN.md §3's inventory
// table to the tree: exactly one internal/... row per package directory
// under internal/, and no row for a package that does not exist.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## 3. ")
	section, _, _ = strings.Cut(section, "\n## 4. ")
	rows := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `internal/"); ok {
			name, _, _ := strings.Cut(rest, "`")
			rows["internal/"+name]++
		}
	}
	pkgs := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgs[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no package under internal/")
	}
	for pkg := range pkgs {
		if rows[pkg] != 1 {
			t.Errorf("DESIGN §3 has %d rows for package %s, want 1", rows[pkg], pkg)
		}
	}
	for row := range rows {
		if !pkgs[row] {
			t.Errorf("DESIGN §3 has a row for %s, which is no package", row)
		}
	}
}
