// Command mrlayers runs the probe families named on its command line
// (serving, rank, deep, sim, core) and prints their per-layer metrics as
// one JSON object. mrmark starts it as a child process; it is a separate
// program so that the untraced run does not link the probes or depend on
// the functions they call.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/benchmark/layers"
)

func main() {
	m, err := layers.Run(os.Args[1:]...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrlayers:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(m); err != nil {
		fmt.Fprintln(os.Stderr, "mrlayers:", err)
		os.Exit(1)
	}
}
