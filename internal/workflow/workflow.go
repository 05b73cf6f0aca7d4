// Package workflow implements the DAG-based workflow representation of the
// framework (paper Section III-B, Listing 1).
//
// A workflow is a DAG whose vertices are parallel applications, extended
// with the concept of a "bundle": a group of applications that must be
// scheduled simultaneously because they are concurrently coupled and
// exchange data at runtime. Edges represent data dependencies between
// sequentially coupled applications. Users describe the workflow in a
// plain-text file:
//
//	# Climate Modeling Workflow
//	APP_ID 1
//	APP_ID 2
//	APP_ID 3
//	PARENT_APPID 1 CHILD_APPID 2
//	PARENT_APPID 1 CHILD_APPID 3
//	BUNDLE 1
//	BUNDLE 2
//	BUNDLE 3
//	MACHINE 6 4
//	HALO 1
//
// Beyond Listing 1, MACHINE <nodes> <cores per node> sizes the machine,
// HALO <w> the stencil exchange (none without the line), DOMAIN the data
// and DECOMP each application's decomposition. Applications not named in
// any BUNDLE line form implicit singleton bundles. Stages orders the
// bundles for launch: a bundle runs once every parent application of every
// member has completed.
package workflow

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/insitu/cods/internal/decomp"
	"github.com/insitu/cods/internal/geometry"
)

// DecompSpec is a declared data decomposition of one application
// (Section III-B: domain size, process layout, distribution type, block
// size).
type DecompSpec struct {
	Kind  decomp.Kind
	Grid  []int
	Block []int // block-cyclic only
}

// DAG is a parsed and validated workflow description.
type DAG struct {
	// Apps holds the declared application ids in declaration order.
	Apps []int
	// Edges are (parent, child) sequential-coupling dependencies.
	Edges [][2]int
	// Bundles groups applications that are scheduled simultaneously; every
	// app belongs to exactly one bundle.
	Bundles [][]int
	// Domain is the coupled data domain size declared with a DOMAIN
	// directive (nil when the file declares none).
	Domain []int
	// Decomps holds the per-application DECOMP declarations.
	Decomps map[int]DecompSpec
	// Nodes and CoresPerNode are the MACHINE line's (0 without one), Halo
	// the HALO line's stencil ghost width (0, no exchange, without one).
	Nodes, CoresPerNode, Halo int
}

// Parse reads a workflow description in the Listing 1 format. Lines
// starting with '#' and blank lines are ignored.
func Parse(r io.Reader) (*DAG, error) {
	d := &DAG{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	haloSeen := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "APP_ID":
			if len(fields) != 2 {
				return nil, fmt.Errorf("workflow: line %d: APP_ID takes one id", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("workflow: line %d: bad app id %q", lineNo, fields[1])
			}
			d.Apps = append(d.Apps, id)
		case "PARENT_APPID":
			if len(fields) != 4 || fields[2] != "CHILD_APPID" {
				return nil, fmt.Errorf("workflow: line %d: want PARENT_APPID <id> CHILD_APPID <id>", lineNo)
			}
			p, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("workflow: line %d: bad parent id %q", lineNo, fields[1])
			}
			c, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("workflow: line %d: bad child id %q", lineNo, fields[3])
			}
			d.Edges = append(d.Edges, [2]int{p, c})
		case "BUNDLE":
			if len(fields) < 2 {
				return nil, fmt.Errorf("workflow: line %d: BUNDLE needs at least one app", lineNo)
			}
			var bundle []int
			for _, f := range fields[1:] {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("workflow: line %d: bad app id %q", lineNo, f)
				}
				bundle = append(bundle, id)
			}
			d.Bundles = append(d.Bundles, bundle)
		case "DOMAIN":
			if d.Domain != nil {
				return nil, fmt.Errorf("workflow: line %d: DOMAIN declared twice", lineNo)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("workflow: line %d: DOMAIN needs at least one extent", lineNo)
			}
			sizes, err := parseIntFields(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("workflow: line %d: %v", lineNo, err)
			}
			d.Domain = sizes
		case "MACHINE":
			v, err := counts(fields, 2, 1, d.Nodes > 0)
			if err != nil {
				return nil, fmt.Errorf("workflow: line %d: %v", lineNo, err)
			}
			d.Nodes, d.CoresPerNode = v[0], v[1]
		case "HALO":
			v, err := counts(fields, 1, 0, haloSeen)
			if err != nil {
				return nil, fmt.Errorf("workflow: line %d: %v", lineNo, err)
			}
			d.Halo, haloSeen = v[0], true
		case "DECOMP":
			// DECOMP <appid> <kind> <grid...> [BLOCK <block...>]
			if len(fields) < 4 {
				return nil, fmt.Errorf("workflow: line %d: want DECOMP <appid> <kind> <grid...> [BLOCK <block...>]", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("workflow: line %d: bad app id %q", lineNo, fields[1])
			}
			kind, err := decomp.ParseKind(fields[2])
			if err != nil {
				return nil, fmt.Errorf("workflow: line %d: %v", lineNo, err)
			}
			gridFields, blockFields := fields[3:], []string(nil)
			at := slices.Index(gridFields, "BLOCK")
			if at >= 0 {
				gridFields, blockFields = gridFields[:at], gridFields[at+1:]
			}
			grid, err := parseIntFields(gridFields)
			if err != nil {
				return nil, fmt.Errorf("workflow: line %d: %v", lineNo, err)
			}
			var block []int
			if at >= 0 {
				// Only block-cyclic reads a block size; one anywhere else
				// would be silently ignored.
				if kind != decomp.BlockCyclic {
					return nil, fmt.Errorf("workflow: line %d: BLOCK applies to block-cyclic only, not %s", lineNo, kind)
				}
				if len(blockFields) == 0 {
					return nil, fmt.Errorf("workflow: line %d: empty BLOCK clause", lineNo)
				}
				block, err = parseIntFields(blockFields)
				if err != nil {
					return nil, fmt.Errorf("workflow: line %d: %v", lineNo, err)
				}
			}
			if d.Decomps == nil {
				d.Decomps = make(map[int]DecompSpec)
			}
			if _, dup := d.Decomps[id]; dup {
				return nil, fmt.Errorf("workflow: line %d: DECOMP for app %d declared twice", lineNo, id)
			}
			d.Decomps[id] = DecompSpec{Kind: kind, Grid: grid, Block: block}
		default:
			return nil, fmt.Errorf("workflow: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workflow: %w", err)
	}
	if err := d.normalize(); err != nil {
		return nil, err
	}
	return d, nil
}

// New builds a DAG programmatically and validates it.
func New(apps []int, edges [][2]int, bundles [][]int) (*DAG, error) {
	d := &DAG{
		Apps:    append([]int(nil), apps...),
		Edges:   append([][2]int(nil), edges...),
		Bundles: append([][]int(nil), bundles...),
	}
	if err := d.normalize(); err != nil {
		return nil, err
	}
	return d, nil
}

// normalize validates the DAG and completes implicit singleton bundles.
func (d *DAG) normalize() error {
	if len(d.Apps) == 0 {
		return fmt.Errorf("workflow: no applications declared")
	}
	declared := make(map[int]bool, len(d.Apps))
	for _, a := range d.Apps {
		if declared[a] {
			return fmt.Errorf("workflow: application %d declared twice", a)
		}
		declared[a] = true
	}
	for _, e := range d.Edges {
		if !declared[e[0]] {
			return fmt.Errorf("workflow: edge references undeclared parent %d", e[0])
		}
		if !declared[e[1]] {
			return fmt.Errorf("workflow: edge references undeclared child %d", e[1])
		}
		if e[0] == e[1] {
			return fmt.Errorf("workflow: self dependency on application %d", e[0])
		}
	}
	inBundle := make(map[int]bool)
	for _, b := range d.Bundles {
		for _, a := range b {
			if !declared[a] {
				return fmt.Errorf("workflow: bundle references undeclared application %d", a)
			}
			if inBundle[a] {
				return fmt.Errorf("workflow: application %d appears in two bundles", a)
			}
			inBundle[a] = true
		}
	}
	for _, a := range d.Apps {
		if !inBundle[a] {
			d.Bundles = append(d.Bundles, []int{a})
		}
	}
	for id, spec := range d.Decomps {
		if !declared[id] {
			return fmt.Errorf("workflow: DECOMP references undeclared application %d", id)
		}
		if d.Domain != nil && len(spec.Grid) != len(d.Domain) {
			return fmt.Errorf("workflow: app %d grid rank %d != domain rank %d", id, len(spec.Grid), len(d.Domain))
		}
		if spec.Kind == decomp.BlockCyclic && len(spec.Block) != len(spec.Grid) {
			return fmt.Errorf("workflow: app %d block-cyclic needs a BLOCK of rank %d", id, len(spec.Grid))
		}
	}
	// Intra-bundle dependencies are contradictory (the bundle must be
	// scheduled simultaneously).
	bundleOf := d.bundleOf()
	for _, e := range d.Edges {
		if bundleOf[e[0]] == bundleOf[e[1]] {
			return fmt.Errorf("workflow: dependency %d->%d inside one bundle", e[0], e[1])
		}
	}
	_, err := d.Stages()
	return err
}

// bundleOf maps app id to its bundle index.
func (d *DAG) bundleOf() map[int]int {
	out := make(map[int]int)
	for i, b := range d.Bundles {
		for _, a := range b {
			out[a] = i
		}
	}
	return out
}

// Parents returns the sorted parent applications of an app.
func (d *DAG) Parents(app int) []int {
	var out []int
	for _, e := range d.Edges {
		if e[1] == app {
			out = append(out, e[0])
		}
	}
	sort.Ints(out)
	return out
}

// Stages returns the launch stages of the workflow: the bundle indices
// the runtime maps and launches together, in launch order. Bundles form
// waves — a bundle joins the first wave after every bundle it depends on,
// in ascending index — and within a wave each multi-application bundle is
// a stage of its own, followed by one stage holding every
// single-application bundle of the wave, so sibling consumers retrieve
// their data simultaneously (the paper's land + sea-ice pattern). A
// dependency cycle is an error.
func (d *DAG) Stages() ([][]int, error) {
	bundleOf := d.bundleOf()
	done := make([]bool, len(d.Bundles))
	var stages [][]int
	for left := len(d.Bundles); left > 0; {
		ready := make([]bool, len(d.Bundles))
		for b := range ready {
			ready[b] = !done[b]
		}
		for _, e := range d.Edges {
			if !done[bundleOf[e[0]]] {
				ready[bundleOf[e[1]]] = false
			}
		}
		var wave, singles []int
		for b, r := range ready {
			if !r {
				continue
			}
			wave = append(wave, b)
			if len(d.Bundles[b]) > 1 {
				stages = append(stages, []int{b})
			} else {
				singles = append(singles, b)
			}
		}
		if len(wave) == 0 {
			return nil, fmt.Errorf("workflow: dependency cycle among bundles")
		}
		if len(singles) > 0 {
			stages = append(stages, singles)
		}
		for _, b := range wave {
			done[b] = true
		}
		left -= len(wave)
	}
	return stages, nil
}

// Decompositions materializes the declared DECOMP specs over the declared
// DOMAIN, erring when the file declares none.
func (d *DAG) Decompositions() (map[int]*decomp.Decomposition, error) {
	if d.Domain == nil {
		return nil, fmt.Errorf("workflow: no DOMAIN declared")
	}
	out := make(map[int]*decomp.Decomposition, len(d.Decomps))
	for id, spec := range d.Decomps {
		dc, err := decomp.New(spec.Kind, geometry.BoxFromSize(d.Domain), spec.Grid, spec.Block)
		if err != nil {
			return nil, fmt.Errorf("workflow: app %d: %w", id, err)
		}
		out[id] = dc
	}
	return out, nil
}

func parseIntFields(fields []string) ([]int, error) {
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out[i] = v
	}
	return out, nil
}

// counts parses the n integer fields, none below floor, of a directive
// that may be declared once.
func counts(fields []string, n, floor int, declared bool) ([]int, error) {
	if declared {
		return nil, fmt.Errorf("%s declared twice", fields[0])
	}
	if len(fields) != n+1 {
		return nil, fmt.Errorf("%s takes %d field(s), not %d", fields[0], n, len(fields)-1)
	}
	v, err := parseIntFields(fields[1:])
	if err == nil && slices.Min(v) < floor {
		err = fmt.Errorf("%s value %d < %d", fields[0], slices.Min(v), floor)
	}
	return v, err
}

// String renders the DAG back in the description format.
func (d *DAG) String() string {
	var sb strings.Builder
	if d.Nodes > 0 {
		sb.WriteString("MACHINE " + joinInts([]int{d.Nodes, d.CoresPerNode}) + "\n")
	}
	if d.Halo > 0 {
		sb.WriteString("HALO " + strconv.Itoa(d.Halo) + "\n")
	}
	if d.Domain != nil {
		fmt.Fprintf(&sb, "DOMAIN %s\n", joinInts(d.Domain))
	}
	for _, a := range d.Apps {
		fmt.Fprintf(&sb, "APP_ID %d\n", a)
	}
	decompIDs := make([]int, 0, len(d.Decomps))
	for id := range d.Decomps {
		decompIDs = append(decompIDs, id)
	}
	sort.Ints(decompIDs)
	for _, id := range decompIDs {
		spec := d.Decomps[id]
		fmt.Fprintf(&sb, "DECOMP %d %s %s", id, spec.Kind, joinInts(spec.Grid))
		if len(spec.Block) > 0 {
			fmt.Fprintf(&sb, " BLOCK %s", joinInts(spec.Block))
		}
		sb.WriteByte('\n')
	}
	for _, e := range d.Edges {
		fmt.Fprintf(&sb, "PARENT_APPID %d CHILD_APPID %d\n", e[0], e[1])
	}
	for _, b := range d.Bundles {
		fmt.Fprintf(&sb, "BUNDLE %s\n", joinInts(b))
	}
	return sb.String()
}

func joinInts(vals []int) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, " ")
}
