package shard

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/service"
)

// tinyBufListener and tinyBufClient clamp the kernel buffers of both ends
// of every connection (as the service package's own disconnect test does),
// so a streamed response cannot be absorbed in flight: the coordinator
// blocks on the socket until the client reads, and a hang-up really is
// mid-stream.
type tinyBufListener struct{ net.Listener }

func (l tinyBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		clampBuffers(c)
	}
	return c, err
}

func clampBuffers(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
		_ = tc.SetWriteBuffer(4 << 10)
	}
}

func tinyBufClient() *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err == nil {
				clampBuffers(c)
			}
			return c, err
		},
	}}
}

// handlerDone wraps h so that every request sends on the returned channel
// once its handler has returned: by then the coordinator has closed the
// cursor of a client that hung up, which no response tells the client.
func handlerDone(h http.Handler) (http.Handler, <-chan struct{}) {
	done := make(chan struct{}, 8) // more than any one test's requests
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		done <- struct{}{}
	}), done
}

// TestCoordinatorDisconnectIsAnAbort is the coordinator's twin of the node
// service's TestClientDisconnectReleasesSlot. A caller that walks away
// from a half-read cursor — a client hanging up on the front end, or the
// cancelled request context such a hang-up leaves behind, seen by the
// cursor before a write fails — is an abort on both cluster sources: the
// merge of node streams and the coordinator-side cursor over a finalized
// concatenation (here a keyless chain's, gathered at one node by shuffle and
// sorted at the coordinator). aborted ticks, failures does not, and node slots,
// inboxes and the registries are back where they were once the front end's
// handler, or the cursor's own end, has returned.
func TestCoordinatorDisconnectIsAnAbort(t *testing.T) {
	for _, route := range []struct{ name, sql, route string }{
		{"scatter", q6SQL, "scatter"},
		{"gather", keylessSQL + " ORDER BY r, ws_order_number", "shuffle"},
	} {
		walkAways := map[string]func(t *testing.T, c *Cluster){
			"hang-up": func(t *testing.T, c *Cluster) {
				handler, done := handlerDone(c.Handler())
				front := httptest.NewUnstartedServer(handler)
				front.Listener = tinyBufListener{front.Listener}
				front.Start()
				defer front.Close()
				hc := tinyBufClient()
				defer hc.CloseIdleConnections()
				rows, err := service.NewClient(front.URL, hc).QueryContext(context.Background(), route.sql)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					if !rows.Next() {
						t.Fatalf("stream ended early: %v", rows.Err())
					}
				}
				if err := rows.Close(); err != nil {
					t.Fatal(err)
				}
				<-done
			},
			"cancelled context": func(t *testing.T, c *Cluster) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rows, err := c.QueryContext(ctx, route.sql)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					if !rows.Next() {
						t.Fatalf("stream ended early: %v", rows.Err())
					}
				}
				cancel()
				for rows.Next() {
				}
				if err := rows.Err(); !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			},
		}
		for how, walkAway := range walkAways {
			t.Run(route.name+"/"+how, func(t *testing.T) {
				c, svcs := streamCluster(t, 2, 20_000, Config{})
				walkAway(t, c)
				requireIdle(t, c)
				if aborted, failures := c.aborted.Load(), c.failures.Load(); aborted != 1 || failures != 0 {
					t.Fatalf("aborted = %d, failures = %d, want 1 and 0", aborted, failures)
				}
				for i, svc := range svcs {
					if st := svc.Stats(); st.Failures != 0 {
						t.Fatalf("node %d counted %d failures, want none", i, st.Failures)
					}
				}
				res, err := windowdb.Collect(context.Background(), c, route.sql)
				if err != nil {
					t.Fatalf("%s after the walk-away: %v", route.name, err)
				}
				if res.Route != route.route {
					t.Fatalf("route = %q, want %s", res.Route, route.route)
				}
			})
		}
	}
}
