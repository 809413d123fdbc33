package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"vmgrid/internal/obs"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
)

// Config tunes the client's fault handling. The zero value selects the
// defaults noted on each field.
type Config struct {
	// DialTimeout bounds each connection attempt. Default 5 s.
	DialTimeout time.Duration
	// CallTimeout is the per-attempt read/write deadline of one Call
	// round trip. Default 60 s (sessions pump hours of virtual time but
	// only milliseconds of wall clock).
	CallTimeout time.Duration
	// Retry schedules dial-or-send attempts per Call. Only requests
	// that never reached the server are retried; once a request is on
	// the wire, a lost reply surfaces as an error (resending could
	// double-execute a non-idempotent operation). The zero policy
	// defaults to 4 attempts from 50 ms, capped at 2 s.
	Retry retry.Policy
}

// wireBaseBackoff is the historical base backoff applied when the
// policy leaves Backoff zero.
const wireBaseBackoff = 50 * sim.Millisecond

func (c *Config) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 60 * time.Second
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 4
	}
	if c.Retry.MaxBackoff <= 0 {
		c.Retry.MaxBackoff = 2 * sim.Second
	}
}

// CallOption tunes one Call (and every convenience wrapper built on
// it) without touching the client's Config.
type CallOption func(*callOpts)

type callOpts struct {
	deadline time.Duration
	policy   retry.Policy
	hasRetry bool
}

// WithDeadline overrides the per-attempt CallTimeout for this call.
func WithDeadline(d time.Duration) CallOption {
	return func(o *callOpts) { o.deadline = d }
}

// WithRetry overrides the retry policy for this call (e.g. a single
// attempt for a probe, or a patient schedule for a just-restarted
// server).
func WithRetry(p retry.Policy) CallOption {
	return func(o *callOpts) { o.policy, o.hasRetry = p, true }
}

// Client talks to a vmgridd server over TCP. A broken connection is
// re-dialed (with capped exponential backoff) on the next Call, so a
// client handle survives server restarts.
type Client struct {
	addr string
	cfg  Config

	mu     sync.Mutex
	conn   net.Conn
	reader *bufio.Reader
	enc    *json.Encoder
	nextID int64
}

// Dial connects to a server with default fault handling.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, Config{})
}

// DialConfig connects to a server with explicit fault handling. The
// initial connection is established eagerly so configuration errors
// surface here rather than on the first Call.
func DialConfig(addr string, cfg Config) (*Client, error) {
	cfg.fill()
	c := &Client{addr: addr, cfg: cfg}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.dropConn()
	return err
}

// ensureConn dials if no live connection exists. Callers hold mu.
func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	// Responses are read without a size cap: the server bounds what it
	// accepts, but replies such as spans grow with the daemon's history.
	c.conn, c.reader, c.enc = conn, bufio.NewReaderSize(conn, 64<<10), json.NewEncoder(conn)
	return nil
}

// readResponse reads and decodes the next response line, dropping the
// connection if the stream breaks. Callers hold mu.
func (c *Client) readResponse(id int64) (Response, error) {
	line, err := c.reader.ReadBytes('\n')
	if err != nil && (len(line) == 0 || !errors.Is(err, io.EOF)) {
		c.dropConn()
		if errors.Is(err, io.EOF) {
			return Response{}, errors.New("wire: connection closed")
		}
		return Response{}, fmt.Errorf("wire: recv: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return Response{}, fmt.Errorf("wire: bad response: %w", err)
	}
	if resp.ID != id {
		return Response{}, fmt.Errorf("wire: response id %d for request %d", resp.ID, id)
	}
	if resp.Error != "" {
		return Response{}, decodeError(resp)
	}
	return resp, nil
}

// dropConn discards a connection whose stream state is unknown; the
// next attempt re-dials.
func (c *Client) dropConn() {
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.conn, c.reader, c.enc = nil, nil, nil
}

// Call performs one round trip. params may be nil. The response data is
// unmarshaled into out when out is non-nil. Attempts that fail before
// the request is sent (dial errors, send errors) are retried per the
// configured retry.Policy; failures after the send are returned as-is.
// Options adjust the deadline or policy for this call only.
func (c *Client) Call(op string, params any, out any, opts ...CallOption) error {
	var o callOpts
	for _, opt := range opts {
		opt(&o)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("wire: params: %w", err)
		}
		raw = b
	}
	policy := c.cfg.Retry
	if o.hasRetry {
		policy = o.policy
	}
	callTimeout := c.cfg.CallTimeout
	if o.deadline > 0 {
		callTimeout = o.deadline
	}
	var lastErr error
	for attempt := 1; attempt <= policy.Attempts(); attempt++ {
		if attempt > 1 {
			time.Sleep(policy.Delay(attempt-1, wireBaseBackoff).Std())
		}
		if err := c.ensureConn(); err != nil {
			lastErr = err
			continue
		}
		c.nextID++
		req := Request{ID: c.nextID, Op: op, Params: raw}
		deadline := time.Now().Add(callTimeout)
		_ = c.conn.SetWriteDeadline(deadline)
		if err := c.enc.Encode(req); err != nil {
			// The request never made it out whole; safe to resend on a
			// fresh connection.
			c.dropConn()
			lastErr = fmt.Errorf("wire: send: %w", err)
			continue
		}
		_ = c.conn.SetReadDeadline(deadline)
		return c.recv(req, out)
	}
	return lastErr
}

// recv reads and decodes the response to req. Callers hold mu.
func (c *Client) recv(req Request, out any) error {
	resp, err := c.readResponse(req.ID)
	if err != nil {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(resp.Data, out); err != nil {
			return fmt.Errorf("wire: response data: %w", err)
		}
	}
	return nil
}

// Convenience wrappers for the common operations. Each forwards its
// CallOptions to Call.

// AddNode attaches a node to the served grid.
func (c *Client) AddNode(p AddNodeParams, opts ...CallOption) error {
	return c.Call("add-node", p, nil, opts...)
}

// Connect links two nodes.
func (c *Client) Connect(a, b, kind string, opts ...CallOption) error {
	return c.Call("connect", ConnectParams{A: a, B: b, Kind: kind}, nil, opts...)
}

// InstallImage installs an image on a node.
func (c *Client) InstallImage(p InstallImageParams, opts ...CallOption) error {
	return c.Call("install-image", p, nil, opts...)
}

// CreateData provisions user data on a node.
func (c *Client) CreateData(p CreateDataParams, opts ...CallOption) error {
	return c.Call("create-data", p, nil, opts...)
}

// NewSession starts a VM session and waits for it to be ready.
func (c *Client) NewSession(p SessionParams, opts ...CallOption) (SessionInfo, error) {
	var info SessionInfo
	err := c.Call("new-session", p, &info, opts...)
	return info, err
}

// Run executes a workload in a session and waits for completion.
func (c *Client) Run(p RunParams, opts ...CallOption) (RunResult, error) {
	var res RunResult
	err := c.Call("run", p, &res, opts...)
	return res, err
}

// Migrate moves a session to another node.
func (c *Client) Migrate(session, target string, opts ...CallOption) (SessionInfo, error) {
	var info SessionInfo
	err := c.Call("migrate", MigrateParams{Session: session, Target: target}, &info, opts...)
	return info, err
}

// Hibernate checkpoints a session.
func (c *Client) Hibernate(session string, opts ...CallOption) (SessionInfo, error) {
	var info SessionInfo
	err := c.Call("hibernate", SessionRef{Session: session}, &info, opts...)
	return info, err
}

// Wake resumes a hibernated session.
func (c *Client) Wake(session string, opts ...CallOption) (SessionInfo, error) {
	var info SessionInfo
	err := c.Call("wake", SessionRef{Session: session}, &info, opts...)
	return info, err
}

// Shutdown ends a session.
func (c *Client) Shutdown(session string, opts ...CallOption) error {
	return c.Call("shutdown", SessionRef{Session: session}, nil, opts...)
}

// Usage fetches a session's metered consumption.
func (c *Client) Usage(session string, opts ...CallOption) (UsageInfo, error) {
	var u UsageInfo
	err := c.Call("usage", SessionRef{Session: session}, &u, opts...)
	return u, err
}

// Query lists information-service records of a kind.
func (c *Client) Query(kind string, opts ...CallOption) ([]QueryEntry, error) {
	var entries []QueryEntry
	err := c.Call("query", QueryParams{Kind: kind}, &entries, opts...)
	return entries, err
}

// Status fetches the fabric summary.
func (c *Client) Status(opts ...CallOption) (StatusInfo, error) {
	var st StatusInfo
	err := c.Call("status", nil, &st, opts...)
	return st, err
}

// Metrics fetches the served grid's metrics snapshot.
func (c *Client) Metrics(opts ...CallOption) (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := c.Call("metrics", nil, &snap, opts...)
	return snap, err
}

// Spans fetches the served grid's recorded spans.
func (c *Client) Spans(opts ...CallOption) ([]obs.SpanRecord, error) {
	var spans []obs.SpanRecord
	err := c.Call("spans", nil, &spans, opts...)
	return spans, err
}

// Trace fetches one session's causal tree and postmortem report.
func (c *Client) Trace(session string, opts ...CallOption) (TraceInfo, error) {
	var info TraceInfo
	err := c.Call("trace", SessionRef{Session: session}, &info, opts...)
	return info, err
}

// Incidents lists the flight recorder's incident bundles.
func (c *Client) Incidents(opts ...CallOption) ([]IncidentInfo, error) {
	var rows []IncidentInfo
	err := c.Call("incidents", nil, &rows, opts...)
	return rows, err
}

// Incident fetches one full incident bundle by id.
func (c *Client) Incident(id string, opts ...CallOption) (obs.Incident, error) {
	var inc obs.Incident
	err := c.Call("incident", IncidentRef{ID: id}, &inc, opts...)
	return inc, err
}

// Top fetches one scrape-fresh grid snapshot.
func (c *Client) Top(opts ...CallOption) (TopInfo, error) {
	var info TopInfo
	err := c.Call("top", nil, &info, opts...)
	return info, err
}

// Alerts fetches the rule set and full alert firing log.
func (c *Client) Alerts(opts ...CallOption) (AlertsInfo, error) {
	var info AlertsInfo
	err := c.Call("alerts", nil, &info, opts...)
	return info, err
}

// Watch streams count top frames everySec virtual seconds apart,
// invoking fn for each as it arrives. fn returning an error stops the
// watch early (the connection is dropped to discard the remaining
// frames). Watch holds the client for the whole stream — other calls on
// this client block until it finishes.
func (c *Client) Watch(count int, everySec float64, fn func(TopInfo) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConn(); err != nil {
		return err
	}
	c.nextID++
	req := Request{ID: c.nextID, Op: "watch"}
	b, err := json.Marshal(WatchParams{Count: count, EverySec: everySec})
	if err != nil {
		return fmt.Errorf("wire: params: %w", err)
	}
	req.Params = b
	deadline := time.Now().Add(c.cfg.CallTimeout)
	_ = c.conn.SetWriteDeadline(deadline)
	if err := c.enc.Encode(req); err != nil {
		c.dropConn()
		return fmt.Errorf("wire: send: %w", err)
	}
	for {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.CallTimeout))
		resp, err := c.readResponse(req.ID)
		if err != nil {
			return err
		}
		var frame TopInfo
		if err := json.Unmarshal(resp.Data, &frame); err != nil {
			return fmt.Errorf("wire: response data: %w", err)
		}
		if err := fn(frame); err != nil {
			// Abandon the stream: the connection carries frames we will
			// not read, so discard it.
			c.dropConn()
			return err
		}
		if !resp.More {
			return nil
		}
	}
}

// Ping checks liveness.
func (c *Client) Ping(opts ...CallOption) error {
	var pong string
	if err := c.Call("ping", nil, &pong, opts...); err != nil {
		return err
	}
	if pong != "pong" {
		return fmt.Errorf("wire: unexpected ping reply %q", pong)
	}
	return nil
}
