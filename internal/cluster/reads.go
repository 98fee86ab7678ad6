package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Bounds on the inter-node bodies the coordinator reads. maxBody also
// bounds one forwarded submission.
const (
	maxBody      = 64 << 20 // a fleet snapshot or a relayed answer
	maxTraceBody = 16 << 20 // a worker span tree
	maxIndexBody = 8 << 20  // an events journal or a profile-window index
	maxProbeBody = 64 << 10 // a healthz or version answer
)

// memberList snapshots the configured members in name order.
func (c *Coordinator) memberList() []*member {
	c.mu.Lock()
	list := make([]*member, 0, len(c.members))
	for _, m := range c.members {
		list = append(list, m)
	}
	c.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	return list
}

// do sends one inter-node request and hands the answer, any status, to
// read with the body bounded to limit bytes. It returns read's error, or
// the transport error when no answer came back.
func (c *Coordinator) do(req *http.Request, limit int64, read func(*http.Response) error) error {
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	resp.Body = io.NopCloser(io.LimitReader(resp.Body, limit))
	err = read(resp)
	io.Copy(io.Discard, resp.Body) // drain within the bound so the connection is reused
	return err
}

// get is the coordinator's one inter-node read: a GET of base+path under
// ctx (the client request's context, or a probe's timeout), sent by do.
func (c *Coordinator) get(ctx context.Context, base, path string, limit int64, read func(*http.Response) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, limit, read)
}

// getOK is get for an answer that must be a 200: decode reads its body.
// Errors name the endpoint ("healthz: status 503").
func getOK[T any](c *Coordinator, ctx context.Context, base, path string, limit int64, decode func(io.Reader) (T, error)) (v T, err error) {
	name := strings.TrimPrefix(path, "/v1/")
	err = c.get(ctx, base, path, limit, func(resp *http.Response) error {
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", name, resp.StatusCode)
		}
		if v, err = decode(resp.Body); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	})
	return v, err
}

// decodeJSON is the JSON body decoder for getOK.
func decodeJSON[T any](r io.Reader) (T, error) {
	var v T
	err := json.NewDecoder(r).Decode(&v)
	return v, err
}

// fetched is one member's answer in a federation.
type fetched[T any] struct {
	name string
	val  T
	err  error
}

// federate GETs path from every configured member concurrently — ring
// membership does not matter, an ejected node that still answers
// contributes — and decodes each 200 answer. Results come back in member
// name order, with the error of each member that could not be fetched or
// decoded.
func federate[T any](c *Coordinator, ctx context.Context, path string, limit int64, decode func(io.Reader) (T, error)) []fetched[T] {
	list := c.memberList()
	out := make([]fetched[T], len(list))
	var wg sync.WaitGroup
	for i, m := range list {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].name = m.name
			out[i].val, out[i].err = getOK(c, ctx, m.baseURL, path, limit, decode)
		}()
	}
	wg.Wait()
	return out
}

// walk GETs path from each node in order until take accepts an answer. A
// transport error counts against the node (noteForward) and the walk
// moves on; any answer resets the node's failure streak and goes to
// take, whose false moves on too. walk reports whether take accepted an
// answer, and the last transport error. A canceled ctx ends the walk
// without counting against the node.
func (c *Coordinator) walk(ctx context.Context, nodes []*member, path string, limit int64, take func(*member, *http.Response) bool) (bool, error) {
	var lastErr error
	for _, m := range nodes {
		taken := false
		err := c.get(ctx, m.baseURL, path, limit, func(resp *http.Response) error {
			c.noteForward(m, nil)
			taken = take(m, resp)
			return nil
		})
		if err != nil {
			if ctx.Err() != nil {
				return false, err // the client went away; not the node's failure
			}
			lastErr = err
			c.noteForward(m, err)
			continue
		}
		if taken {
			return true, nil
		}
	}
	return false, lastErr
}

// missAnswers are a read's error messages when no node relays an answer:
// the 404 when some node answered 404, the 502 prefix to the last
// transport error, and the 503 when there was no node to try.
type missAnswers struct{ notFound, unreachable, noNodes string }

var (
	digestMiss = missAnswers{"unknown digest", "no reachable node for digest: ", "no live nodes in ring"}
	windowMiss = missAnswers{"unknown profile window", "no reachable node for window: ", "no live nodes"}
)

// relayFirst walks nodes in order and relays the first answer that is
// not a 404, naming the serving node. With none, it answers 404 if some
// node answered 404, else 502 with the last transport error, else 503.
func (c *Coordinator) relayFirst(ctx context.Context, w http.ResponseWriter, nodes []*member, path string, miss missAnswers) {
	missed := false
	served, lastErr := c.walk(ctx, nodes, path, maxBody, func(m *member, resp *http.Response) bool {
		if resp.StatusCode == http.StatusNotFound {
			missed = true
			return false
		}
		relay(w, resp, m.name)
		return true
	})
	switch {
	case served:
	case missed:
		httpError(w, http.StatusNotFound, miss.notFound)
	case lastErr != nil:
		httpError(w, http.StatusBadGateway, miss.unreachable+lastErr.Error())
	default:
		httpError(w, http.StatusServiceUnavailable, miss.noNodes)
	}
}

// relay copies a node answer to the client, naming the serving node.
func relay(w http.ResponseWriter, resp *http.Response, node string) {
	for _, h := range []string{"Content-Type", "Content-Disposition", "Retry-After", "X-Dydroid-Trace"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Dydroid-Node", node)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
