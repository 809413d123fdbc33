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

// Client talks to a vmgridd server over TCP. A broken connection is
// re-dialed (with capped exponential backoff) on the next Call, so a
// client handle survives server restarts. A client made by NewLocal
// dispatches to a Server in process instead.
type Client struct {
	addr string
	cfg  Config
	srv  *Server // set for an in-process client

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

// Local is an in-process client for a Server: the same operations as
// the TCP client, dispatched directly. It lets a daemon (or test)
// compose a fabric without round-tripping through its own socket.
type Local = Client

// NewLocal wraps a server for in-process use.
func NewLocal(srv *Server) *Local { return &Client{srv: srv} }

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

// send writes one request, dialing first if no connection is live, and
// returns its ID. The write and the reply's read share one deadline,
// timeout from now. A failed write drops the connection: the request
// never made it out whole, so it is safe to resend on a fresh one.
// Callers hold mu.
func (c *Client) send(op string, params json.RawMessage, timeout time.Duration) (int64, error) {
	if err := c.ensureConn(); err != nil {
		return 0, err
	}
	c.nextID++
	deadline := time.Now().Add(timeout)
	_ = c.conn.SetWriteDeadline(deadline)
	if err := c.enc.Encode(Request{ID: c.nextID, Op: op, Params: params}); err != nil {
		c.dropConn()
		return 0, fmt.Errorf("wire: send: %w", err)
	}
	_ = c.conn.SetReadDeadline(deadline)
	return c.nextID, nil
}

// readResponse reads the next response line, dropping the connection if
// the stream breaks, and decodes it into out. more reports a streamed
// response with further frames to follow. Callers hold mu.
func (c *Client) readResponse(id int64, out any) (more bool, err error) {
	line, err := c.reader.ReadBytes('\n')
	if err != nil && (len(line) == 0 || !errors.Is(err, io.EOF)) {
		c.dropConn()
		if errors.Is(err, io.EOF) {
			return false, errors.New("wire: connection closed")
		}
		return false, fmt.Errorf("wire: recv: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return false, fmt.Errorf("wire: bad response: %w", err)
	}
	if resp.ID != id {
		return false, fmt.Errorf("wire: response id %d for request %d", resp.ID, id)
	}
	return resp.More, decode(resp, out)
}

// decode turns a response into its call's result: the server's error,
// rebuilt through the code table so errors.Is matching holds on either
// transport, or the data unmarshaled into out when out is non-nil.
func decode(resp Response, out any) error {
	if resp.Error != "" {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(resp.Data, out); err != nil {
		return fmt.Errorf("wire: response data: %w", err)
	}
	return nil
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
// unmarshaled into out when out is non-nil. Over TCP, attempts that fail
// before the request is sent (dial errors, send errors) are retried per
// the configured retry.Policy; failures after the send are returned
// as-is. An in-process client dispatches directly.
func (c *Client) Call(op string, params any, out any) error {
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("wire: params: %w", err)
		}
		raw = b
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.srv != nil {
		c.nextID++
		return decode(c.srv.dispatch(Request{ID: c.nextID, Op: op, Params: raw}), out)
	}
	var lastErr error
	for attempt := 1; attempt <= c.cfg.Retry.Attempts(); attempt++ {
		if attempt > 1 {
			time.Sleep(c.cfg.Retry.Delay(attempt-1, wireBaseBackoff).Std())
		}
		id, err := c.send(op, raw, c.cfg.CallTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		_, err = c.readResponse(id, out)
		return err
	}
	return lastErr
}

// Convenience wrappers for the common operations.

// AddNode attaches a node to the served grid.
func (c *Client) AddNode(p AddNodeParams) error {
	return c.Call("add-node", p, nil)
}

// Connect links two nodes.
func (c *Client) Connect(a, b, kind string) error {
	return c.Call("connect", ConnectParams{A: a, B: b, Kind: kind}, nil)
}

// InstallImage installs an image on a node.
func (c *Client) InstallImage(p InstallImageParams) error {
	return c.Call("install-image", p, nil)
}

// CreateData provisions user data on a node.
func (c *Client) CreateData(p CreateDataParams) error {
	return c.Call("create-data", p, nil)
}

// NewSession starts a VM session and waits for it to be ready.
func (c *Client) NewSession(p SessionParams) (SessionInfo, error) {
	var info SessionInfo
	err := c.Call("new-session", p, &info)
	return info, err
}

// Run executes a workload in a session and waits for completion.
func (c *Client) Run(p RunParams) (RunResult, error) {
	var res RunResult
	err := c.Call("run", p, &res)
	return res, err
}

// Migrate moves a session to another node.
func (c *Client) Migrate(session, target string) (SessionInfo, error) {
	var info SessionInfo
	err := c.Call("migrate", MigrateParams{Session: session, Target: target}, &info)
	return info, err
}

// Hibernate checkpoints a session.
func (c *Client) Hibernate(session string) (SessionInfo, error) {
	var info SessionInfo
	err := c.Call("hibernate", SessionRef{Session: session}, &info)
	return info, err
}

// Wake resumes a hibernated session.
func (c *Client) Wake(session string) (SessionInfo, error) {
	var info SessionInfo
	err := c.Call("wake", SessionRef{Session: session}, &info)
	return info, err
}

// Shutdown ends a session.
func (c *Client) Shutdown(session string) error {
	return c.Call("shutdown", SessionRef{Session: session}, nil)
}

// Usage fetches a session's metered consumption.
func (c *Client) Usage(session string) (UsageInfo, error) {
	var u UsageInfo
	err := c.Call("usage", SessionRef{Session: session}, &u)
	return u, err
}

// Query lists information-service records of a kind.
func (c *Client) Query(kind string) ([]QueryEntry, error) {
	var entries []QueryEntry
	err := c.Call("query", QueryParams{Kind: kind}, &entries)
	return entries, err
}

// Status fetches the fabric summary.
func (c *Client) Status() (StatusInfo, error) {
	var st StatusInfo
	err := c.Call("status", nil, &st)
	return st, err
}

// Metrics fetches the served grid's metrics snapshot.
func (c *Client) Metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := c.Call("metrics", nil, &snap)
	return snap, err
}

// Spans fetches the served grid's recorded spans.
func (c *Client) Spans() ([]obs.SpanRecord, error) {
	var spans []obs.SpanRecord
	err := c.Call("spans", nil, &spans)
	return spans, err
}

// Trace fetches one session's causal tree and postmortem report.
func (c *Client) Trace(session string) (TraceInfo, error) {
	var info TraceInfo
	err := c.Call("trace", SessionRef{Session: session}, &info)
	return info, err
}

// Incidents lists the flight recorder's incident bundles.
func (c *Client) Incidents() ([]IncidentInfo, error) {
	var rows []IncidentInfo
	err := c.Call("incidents", nil, &rows)
	return rows, err
}

// Incident fetches one full incident bundle by id.
func (c *Client) Incident(id string) (obs.Incident, error) {
	var inc obs.Incident
	err := c.Call("incident", IncidentRef{ID: id}, &inc)
	return inc, err
}

// Top fetches one scrape-fresh grid snapshot.
func (c *Client) Top() (TopInfo, error) {
	var info TopInfo
	err := c.Call("top", nil, &info)
	return info, err
}

// Alerts fetches the rule set and full alert firing log.
func (c *Client) Alerts() (AlertsInfo, error) {
	var info AlertsInfo
	err := c.Call("alerts", nil, &info)
	return info, err
}

// Watch streams count top frames everySec virtual seconds apart,
// invoking fn for each as it arrives. fn returning an error stops the
// watch early (the connection is dropped to discard the remaining
// frames). Watch holds the client for the whole stream — other calls on
// this client block until it finishes. An in-process client cannot
// watch: the stream needs a connection.
func (c *Client) Watch(count int, everySec float64, fn func(TopInfo) error) error {
	if c.srv != nil {
		return errors.New("wire: watch needs a TCP connection")
	}
	b, err := json.Marshal(WatchParams{Count: count, EverySec: everySec})
	if err != nil {
		return fmt.Errorf("wire: params: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.send("watch", b, c.cfg.CallTimeout)
	if err != nil {
		return err
	}
	for {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.CallTimeout))
		var frame TopInfo
		more, err := c.readResponse(id, &frame)
		if err != nil {
			return err
		}
		if err := fn(frame); err != nil {
			// Abandon the stream: the connection carries frames we will
			// not read, so discard it.
			c.dropConn()
			return err
		}
		if !more {
			return nil
		}
	}
}

// Ping checks liveness.
func (c *Client) Ping() error {
	var pong string
	if err := c.Call("ping", nil, &pong); err != nil {
		return err
	}
	if pong != "pong" {
		return fmt.Errorf("wire: unexpected ping reply %q", pong)
	}
	return nil
}
