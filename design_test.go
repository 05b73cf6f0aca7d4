package cods_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxDesignLines bounds DESIGN.md: it describes the design as it stands,
// and the history of how it got there belongs in CHANGES.md.
const maxDesignLines = 500

// TestDesignInventoryListsEveryPackage holds DESIGN.md §3's inventory
// table to the tree: exactly one row per package directory under
// internal/, cmd/ and examples/, no row for a directory that holds no
// package, and DESIGN.md at most maxDesignLines long.
func TestDesignInventoryListsEveryPackage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(design), "\n"); n > maxDesignLines {
		t.Errorf("DESIGN.md has %d lines, want at most %d", n, maxDesignLines)
	}
	roots := []string{"internal", "cmd", "examples"}
	_, section, _ := strings.Cut(string(design), "\n## 3. ")
	section, _, _ = strings.Cut(section, "\n## 4. ")
	rows := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		for _, root := range roots {
			if rest, ok := strings.CutPrefix(line, "| `"+root+"/"); ok {
				name, _, _ := strings.Cut(rest, "`")
				rows[root+"/"+name]++
			}
		}
	}
	pkgs := map[string]bool{}
	for _, root := range roots {
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				pkgs[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(pkgs) == 0 {
		t.Fatal("found no package under internal/, cmd/ or examples/")
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
