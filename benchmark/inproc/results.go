// Package inproc holds the two in-process workloads. sim_figs drives the
// simulator stack through bench.Measure, cg.Run and splatt.Run; enum_core
// drives the paper's own enumeration code. Each imports only the
// functions its ops call.
package inproc

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// figureTable holds the printed bandwidth cells of one results/figureN.txt:
// cells[allComms][size label][order] = the MB/s cell as printed.
type figureTable [2]map[string]map[string]string

// readFigure parses the two bandwidth tables of a results file, the
// one-communicator table first.
func readFigure(path string) (figureTable, error) {
	var t figureTable
	f, err := os.Open(path)
	if err != nil {
		return t, err
	}
	defer f.Close()
	table := -1
	var orders []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasSuffix(line, "— bandwidth (MB/s)"):
			table++
			if table > 1 {
				return t, fmt.Errorf("inproc: %s: more than two bandwidth tables", path)
			}
			t[table] = map[string]map[string]string{}
			orders = nil
		case table >= 0 && orders == nil && len(fields) > 1 && fields[0] == "size":
			orders = fields[1:]
		case table >= 0 && orders != nil && len(fields) == len(orders)+2 && isSizeUnit(fields[1]):
			if _, err := strconv.Atoi(fields[0]); err != nil {
				continue
			}
			row := map[string]string{}
			for i, o := range orders {
				row[o] = fields[2+i]
			}
			t[table][fields[0]+" "+fields[1]] = row
		}
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	if table != 1 || len(t[0]) == 0 || len(t[1]) == 0 {
		return t, fmt.Errorf("inproc: %s: expected two non-empty bandwidth tables", path)
	}
	return t, nil
}

func isSizeUnit(s string) bool { return s == "B" || s == "KB" || s == "MB" }

// sizeLabel renders a size the way the results files label their rows.
func sizeLabel(bytes int64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%d MB", bytes>>20)
	case bytes >= 1<<10:
		return fmt.Sprintf("%d KB", bytes>>10)
	}
	return fmt.Sprintf("%d B", bytes)
}
