package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mapd"
	"repro/internal/perm"
)

var orderLine = regexp.MustCompile(`(?m)^(?: *\d+\.|worst evaluated:) order ([0-9-]+):`)

// The text and -json modes of advise are two renderings of one
// evaluation: on the inputs where the CLI once kept its own validation,
// machine table and engine dispatch, they must accept or reject together,
// with the same message, and name the same first and last order.
func TestAdviseTextAndJSONAgree(t *testing.T) {
	for _, tc := range []struct {
		args   string
		reject string // substring of the error; empty when accepted
	}{
		{"-nodes 0", ""},
		{"-coll bogus", `unknown collective "bogus"`},
		{"-top -1", "top -1 outside"},
		{"-top 0", ""},
		{"-size 0", ""},
		{"-size -5", "bytes -5 outside"},
		{"-comm 7", "comm_size 7 does not divide"},
		{"-comm 1", "comm_size 1 outside [2, 512]"},
		{"-machine hydra-real -nodes 4", ""},
		{"-machine cloud -depth 9", ""},
		{"-machine lumi -nodes 3 -comm 48", ""},
	} {
		t.Run(tc.args, func(t *testing.T) {
			args := strings.Fields(tc.args)
			var text, js bytes.Buffer
			terr := cmdAdvise(&text, args)
			jerr := cmdAdvise(&js, append(args, "-json"))
			if (terr == nil) != (jerr == nil) || (terr != nil && terr.Error() != jerr.Error()) {
				t.Fatalf("text err = %v, -json err = %v", terr, jerr)
			}
			if tc.reject != "" {
				if terr == nil || !strings.Contains(terr.Error(), tc.reject) {
					t.Fatalf("err = %v, want one naming %q", terr, tc.reject)
				}
				return
			}
			if terr != nil {
				t.Fatalf("rejected: %v", terr)
			}
			var resp mapd.AdviseResponse
			if err := json.Unmarshal(js.Bytes(), &resp); err != nil {
				t.Fatalf("-json output: %v\n%s", err, js.String())
			}
			lines := orderLine.FindAllStringSubmatch(text.String(), -1)
			if len(lines) != len(resp.Best)+1 {
				t.Fatalf("text names %d orders, -json %d best + worst:\n%s", len(lines), len(resp.Best), text.String())
			}
			first, last := lines[0][1], lines[len(lines)-1][1]
			if first != perm.Format(resp.Best[0].Order) || last != perm.Format(resp.Worst.Order) {
				t.Errorf("text first/last = %s / %s, -json %s / %s", first, last,
					perm.Format(resp.Best[0].Order), perm.Format(resp.Worst.Order))
			}
		})
	}
}
