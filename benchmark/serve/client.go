package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/benchmark/harness"
)

// Request is one generated HTTP request.
type Request struct {
	Path string
	Body []byte
}

// Reply is what a client keeps of one answer.
type Reply struct {
	Status  int
	Replica string // X-Mr-Replica: which replica served it
	Body    []byte
}

// opTimeout bounds one op on the client side, above the server's own 10 s
// evaluation budget so that the server's verdict is the one observed.
const opTimeout = 15 * time.Second

// newClient returns an HTTP client holding one keep-alive connection: a
// closed-loop client has one request in flight at a time.
func newClient() *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends req to base and reads the whole answer. With a lane it
// records the op's root span and, under it, the wait for the response
// head and the read of the body.
func post(c *http.Client, base string, req Request, op int, lane *harness.Lane) (Reply, error) {
	root := lane.Start("client.op", -1, op)
	defer lane.End(root)
	hreq, err := http.NewRequest(http.MethodPost, base+req.Path, bytes.NewReader(req.Body))
	if err != nil {
		return Reply{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	sp := lane.Start("http.roundtrip", root, op)
	resp, err := c.Do(hreq)
	lane.End(sp)
	if err != nil {
		return Reply{}, err
	}
	defer resp.Body.Close()
	sp = lane.Start("http.read_body", root, op)
	body, err := io.ReadAll(resp.Body)
	lane.End(sp)
	if err != nil {
		return Reply{}, err
	}
	return Reply{Status: resp.StatusCode, Replica: resp.Header.Get("X-Mr-Replica"), Body: body}, nil
}

// isDegraded reports whether an answer is marked as a fallback. Every
// response struct of the service renders the flag the same way and omits
// it when false.
func isDegraded(body []byte) bool {
	return bytes.Contains(body, []byte(`"degraded":true`))
}

// served reports whether a reply is a full answer from a replica.
func served(r Reply) bool {
	return r.Status == http.StatusOK && r.Replica != "" && !isDegraded(r.Body)
}

// Scrape is one reading of a /metrics page: each sample's value under its
// full series name, and summed over label sets under its bare name.
type Scrape map[string]float64

// scrape reads base's Prometheus text exposition.
func scrape(c *http.Client, base string) (Scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: %s/metrics: status %d", base, resp.StatusCode)
	}
	out := Scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		out[series] = v
		if i := strings.IndexByte(series, '{'); i >= 0 {
			out[series[:i]] += v
		}
	}
	return out, sc.Err()
}

// scrapeAll sums the readings of several processes.
func scrapeAll(c *http.Client, bases ...string) (Scrape, error) {
	total := Scrape{}
	for _, b := range bases {
		s, err := scrape(c, b)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			total[k] += v
		}
	}
	return total, nil
}
