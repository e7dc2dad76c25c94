// The matrix subcommand: communication-matrix-aware placement. It reads
// (or generates) a sparse communication matrix, runs the procmap search —
// σ-order baseline, greedy construction, KL refinement — and prints the
// placement next to the best mixed-radix order it beat. With -server it
// posts the same canonical request to a running mrserved instead, so the
// offline and served answers diff cleanly.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/commmatrix"
	"repro/internal/mapd"
	"repro/internal/perm"
	"repro/internal/procmap"
)

func cmdMatrix(args []string) error {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	hier := fs.String("h", "", "hierarchy, e.g. 4,2,2,8")
	matrixPath := fs.String("matrix", "", "sparse communication matrix JSON file (- for stdin)")
	gen := fs.String("gen", "", `generate traffic instead: halo:RxC[:bytes] or layers:G0xG1xG2:b0,b1,b2`)
	seed := fs.Int64("seed", 0, "refinement seed")
	rounds := fs.Int("rounds", 0, "refinement round cap (0 = default)")
	noRefine := fs.Bool("norefine", false, "greedy construction only, skip the local search")
	emit := fs.Bool("emit", false, "print the matrix JSON and exit (feed it back via -matrix)")
	asJSON := fs.Bool("json", false, "emit the service's canonical /v1/map/matrix response")
	server := fs.String("server", "", "POST to this mrserved base URL instead of evaluating locally")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sparse, err := loadMatrix(*matrixPath, *gen)
	if err != nil {
		return err
	}
	if *emit {
		return emitJSON(os.Stdout, sparse)
	}
	req := mapd.MatrixMapRequest{
		Hierarchy: *hier,
		Matrix:    sparse,
		Seed:      *seed,
		MaxRounds: *rounds,
	}
	if *noRefine {
		f := false
		req.Refine = &f
	}
	var resp *mapd.MatrixMapResponse
	if *server != "" {
		resp, err = postMatrix(*server, req)
	} else {
		var ans any
		if ans, err = mapd.Eval(context.Background(), &req); err == nil {
			resp = ans.(*mapd.MatrixMapResponse)
		}
	}
	if err != nil {
		return err
	}
	if *asJSON {
		return emitJSON(os.Stdout, resp)
	}
	fmt.Printf("hierarchy %v, %d ranks, matrix %s\n", resp.Hierarchy, resp.Ranks, resp.MatrixDigest)
	fmt.Printf("best order %s: cost %g\n", perm.Format(resp.BestOrder), resp.BestOrderCost)
	mode := resp.SearchMode
	if resp.Degraded {
		mode += " (degraded)"
	}
	fmt.Printf("matrix-aware [%s]: cost %g (%.2f%% better, %d rounds, %d swaps)\n",
		mode, resp.Cost, resp.ImprovementPct, resp.Rounds, resp.Swaps)
	fmt.Printf("placement (rank -> core): %v\n", resp.Placement)
	return nil
}

// loadMatrix reads a sparse matrix from a file (or stdin) or generates one
// of the synthetic workloads.
func loadMatrix(path, gen string) (commmatrix.Sparse, error) {
	switch {
	case path != "" && gen != "":
		return commmatrix.Sparse{}, fmt.Errorf("-matrix and -gen are mutually exclusive")
	case path != "":
		var r io.Reader = os.Stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return commmatrix.Sparse{}, err
			}
			defer f.Close()
			r = f
		}
		var s commmatrix.Sparse
		dec := json.NewDecoder(r)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return commmatrix.Sparse{}, fmt.Errorf("parsing matrix: %w", err)
		}
		return s, nil
	case gen != "":
		m, err := genMatrix(gen)
		if err != nil {
			return commmatrix.Sparse{}, err
		}
		return m.Sparse(), nil
	default:
		return commmatrix.Sparse{}, fmt.Errorf("matrix needs -matrix <file> or -gen <spec>")
	}
}

func genMatrix(spec string) (*commmatrix.Matrix, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	switch kind {
	case "halo":
		dims, bstr, _ := strings.Cut(rest, ":")
		g, err := parseInts(dims)
		if err != nil || len(g) != 2 {
			return nil, fmt.Errorf("halo wants RxC dimensions, got %q", rest)
		}
		b := 1024.0
		if bstr != "" {
			if _, err := fmt.Sscanf(bstr, "%g", &b); err != nil {
				return nil, fmt.Errorf("bad halo bytes %q", bstr)
			}
		}
		return procmap.Halo(g[0], g[1], b)
	case "layers":
		dims, bstr, ok := strings.Cut(rest, ":")
		g, err := parseInts(dims)
		if err != nil || len(g) != 3 || !ok {
			return nil, fmt.Errorf("layers wants G0xG1xG2:b0,b1,b2, got %q", rest)
		}
		var mb [3]float64
		bs := strings.Split(bstr, ",")
		if len(bs) != 3 {
			return nil, fmt.Errorf("layers wants three per-mode byte volumes, got %q", bstr)
		}
		for i, s := range bs {
			if _, err := fmt.Sscanf(s, "%g", &mb[i]); err != nil {
				return nil, fmt.Errorf("bad mode volume %q", s)
			}
		}
		return procmap.GridLayers([3]int{g[0], g[1], g[2]}, mb)
	default:
		return nil, fmt.Errorf("unknown generator %q (want halo or layers)", kind)
	}
}

// postMatrix sends the canonical request to a running mrserved.
func postMatrix(base string, req mapd.MatrixMapRequest) (*mapd.MatrixMapResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	url := strings.TrimSuffix(base, "/") + "/v1/map/matrix"
	hr, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	rb, err := io.ReadAll(hr.Body)
	if err != nil {
		return nil, err
	}
	if hr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, hr.Status, strings.TrimSpace(string(rb)))
	}
	var resp mapd.MatrixMapResponse
	if err := json.Unmarshal(rb, &resp); err != nil {
		return nil, fmt.Errorf("decoding %s response: %w", url, err)
	}
	return &resp, nil
}
