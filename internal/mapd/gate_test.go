package mapd_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/mapd"
)

// The routing tier's all-dead fallback must reject exactly what a live
// replica rejects, with the same envelope: the bad-request table of
// server_test.go, row for row, against a gate whose only replica is dead
// and a replica serving the same rows.
func TestGateFallbackRejectsMalformedRequests(t *testing.T) {
	replica := httptest.NewServer(mapd.New(mapd.Config{}).Handler())
	defer replica.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	g, err := fleet.New(fleet.Config{Replicas: []string{dead.URL}, Health: fleet.HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // enough failed sweeps to eject the replica
		g.CheckNow(context.Background())
	}
	gate := httptest.NewServer(g.Handler())
	defer gate.Close()

	post := func(base, path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, tc := range mapd.MalformedRequests {
		t.Run(tc.Name, func(t *testing.T) {
			wantCode, want := post(replica.URL, tc.Path, tc.Req)
			code, got := post(gate.URL, tc.Path, tc.Req)
			if code != http.StatusBadRequest || code != wantCode {
				t.Fatalf("all-dead gate answered %d, replica %d, want 400 from both; gate body %s", code, wantCode, got)
			}
			if got != want {
				t.Errorf("error envelopes differ\n gate:    %s replica: %s", got, want)
			}
		})
	}
}
