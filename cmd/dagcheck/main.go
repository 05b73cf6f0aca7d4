// Command dagcheck validates a workflow DAG description file (the format
// of the paper's Listing 1) and prints its machine shape and halo, its
// bundles, the launch stages the runtime runs them in (workflow.DAG.Stages)
// and its canonical form.
//
// Usage:
//
//	dagcheck workflow.dag
//	echo "APP_ID 1" | dagcheck -
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/insitu/cods/internal/workflow"
)

var errUsage = errors.New("usage: dagcheck <file|->")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "dagcheck: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return errUsage
	}
	var r io.Reader = os.Stdin
	if args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	d, err := workflow.Parse(r)
	if err != nil {
		return err
	}
	stages, err := d.Stages()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "valid workflow: %d applications, %d dependencies, %d bundles\n",
		len(d.Apps), len(d.Edges), len(d.Bundles))
	fmt.Fprintf(stdout, "  machine: %d nodes x %d cores, halo %d\n", d.Nodes, d.CoresPerNode, d.Halo)
	for i, b := range d.Bundles {
		fmt.Fprintf(stdout, "  bundle %d: apps %v\n", i, b)
	}
	for i, stage := range stages {
		fmt.Fprintf(stdout, "stage %d:", i+1)
		for _, b := range stage {
			fmt.Fprintf(stdout, " %v", d.Bundles[b])
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprint(stdout, "\ncanonical form:\n", d.String())
	return nil
}
