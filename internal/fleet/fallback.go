// The last-resort serving tier: when every replica is down (or the retry
// budget ran dry before an answer arrived), the router answers the
// already-parsed query itself with mapd's degraded local answer — the
// same function a replica serves under an open breaker. It never searches
// — it is bounded, allocation-light ring-cost arithmetic — so a router
// box can absorb fleet-wide outages without itself melting.

package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/mapd"
	"repro/internal/obs"
	"repro/internal/obs/rt"
)

// serveFallback answers q locally, flagged degraded, after the fleet
// failed to. A body the parser rejected (perr) still surfaces as a proper
// 400 envelope so a bad request is distinguishable from a bad fleet.
func (g *Router) serveFallback(ctx context.Context, w http.ResponseWriter, ep string, q mapd.Query, perr error) {
	_, sp := rt.StartSpan(ctx, "gate.fallback")
	defer sp.End()
	var b []byte
	err := perr
	if err == nil {
		var resp any
		if resp, err = q.Degraded(); err == nil {
			b, err = json.Marshal(resp)
		}
	}
	if err != nil {
		sp.SetError()
		if errors.Is(err, mapd.ErrBadRequest) {
			mapd.WriteError(ctx, w, http.StatusBadRequest, err.Error())
			return
		}
		mapd.WriteError(ctx, w, http.StatusBadGateway, "no replica reachable and local fallback failed: "+err.Error())
		return
	}
	g.reg.Counter("fleet_fallback_total", obs.L("endpoint", ep)).Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("x-mrgate-fallback", "local")
	_, _ = w.Write(append(b, '\n'))
}
