// Package wire exposes a vmgrid fabric over real TCP: a JSON
// line-protocol server wrapping a core.Grid, and a matching client. This
// is the deployment face of the reproduction — cmd/vmgridd serves a
// grid, cmd/vmgridctl drives it — while the simulation kernel underneath
// advances virtual time as operations demand.
//
// Every request is one JSON object on one line; every response likewise.
// The grid is single-threaded by construction (the simulation kernel is
// not concurrent), so the server serializes all operations.
package wire

import (
	"encoding/json"
	"fmt"

	"vmgrid/internal/obs"
)

// Request is one client->server message.
type Request struct {
	ID     int64           `json:"id"`
	Op     string          `json:"op"`
	Params json.RawMessage `json:"params,omitempty"`
}

// Response is one server->client message. Code, when set, is the stable
// wire code of a sentinel error (see errors.go); clients use it to
// reconstruct typed errors for errors.Is matching. More marks a
// streaming response (the watch op) with further frames to follow under
// the same ID.
type Response struct {
	ID    int64           `json:"id"`
	Error string          `json:"error,omitempty"`
	Code  string          `json:"code,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
	More  bool            `json:"more,omitempty"`
}

// AddNodeParams configures the add-node op.
type AddNodeParams struct {
	Name       string   `json:"name"`
	Site       string   `json:"site"`
	Roles      []string `json:"roles"`
	Slots      int      `json:"slots,omitempty"`
	DHCPPrefix string   `json:"dhcpPrefix,omitempty"`
}

// ConnectParams configures the connect op.
type ConnectParams struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Kind string `json:"kind"` // "lan" or "wan"
}

// InstallImageParams configures the install-image op.
type InstallImageParams struct {
	Node      string `json:"node"`
	Name      string `json:"name"`
	OS        string `json:"os"`
	DiskBytes int64  `json:"diskBytes"`
	MemBytes  int64  `json:"memBytes,omitempty"`
}

// CreateDataParams configures the create-data op.
type CreateDataParams struct {
	Node  string `json:"node"`
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
}

// SessionParams configures the new-session op.
type SessionParams struct {
	User     string `json:"user"`
	FrontEnd string `json:"frontEnd"`
	Image    string `json:"image"`
	Mode     string `json:"mode"`   // "reboot" or "restore"
	Disk     string `json:"disk"`   // "persistent" or "non-persistent"
	Access   string `json:"access"` // "local", "loopback", "on-demand", "staged"
	Site     string `json:"site,omitempty"`
	DataNode string `json:"dataNode,omitempty"`
	DataFile string `json:"dataFile,omitempty"`
	HomeNode string `json:"homeNode,omitempty"`
	// Place names the placement policy ("least-loaded", "predicted-load",
	// "pack"); empty keeps the information service's ranking.
	Place string `json:"place,omitempty"`
	// NodeHint prefers the named compute node when it is a viable
	// candidate (a preference, not a pin).
	NodeHint string `json:"nodeHint,omitempty"`
}

// SessionInfo describes a session in responses.
type SessionInfo struct {
	Name        string             `json:"name"`
	State       string             `json:"state"`
	Node        string             `json:"node,omitempty"`
	Addr        string             `json:"addr,omitempty"`
	ImageServer string             `json:"imageServer,omitempty"`
	LocalUser   string             `json:"localUser,omitempty"`
	Console     string             `json:"console,omitempty"`
	StartupSec  float64            `json:"startupSec,omitempty"`
	Events      map[string]float64 `json:"events,omitempty"`
}

// RunParams configures the run op (workload in a session).
type RunParams struct {
	Session       string  `json:"session"`
	Name          string  `json:"name"`
	CPUSeconds    float64 `json:"cpuSeconds"`
	PrivPerSec    float64 `json:"privPerSec,omitempty"`
	MemVirtPerSec float64 `json:"memVirtPerSec,omitempty"`
	Reads         int     `json:"reads,omitempty"`
	ReadBytes     int64   `json:"readBytes,omitempty"`
	Mount         string  `json:"mount,omitempty"`
	RootOps       int     `json:"rootOps,omitempty"`
	RootBytes     int64   `json:"rootBytes,omitempty"`
}

// RunResult summarizes a finished workload.
type RunResult struct {
	Name       string  `json:"name"`
	ElapsedSec float64 `json:"elapsedSec"`
	UserSec    float64 `json:"userSec"`
	SysSec     float64 `json:"sysSec"`
	Reads      int     `json:"reads"`
	IOWaitSec  float64 `json:"ioWaitSec"`
}

// MigrateParams configures the migrate op.
type MigrateParams struct {
	Session string `json:"session"`
	Target  string `json:"target"`
}

// SessionRef names a session for lifecycle ops.
type SessionRef struct {
	Session string `json:"session"`
}

// NodeInfo describes a node in status responses.
type NodeInfo struct {
	Name     string   `json:"name"`
	Site     string   `json:"site"`
	Slots    int      `json:"slots"`
	Runnable int      `json:"runnable"`
	Files    []string `json:"files,omitempty"`
}

// StatusInfo is the status op response.
type StatusInfo struct {
	VirtualSec float64       `json:"virtualSec"`
	Nodes      []NodeInfo    `json:"nodes"`
	Sessions   []SessionInfo `json:"sessions"`
}

// UsageInfo is the usage op response: a session's metered consumption.
type UsageInfo struct {
	Session           string  `json:"session"`
	CPUSeconds        float64 `json:"cpuSeconds"`
	GuestUserSeconds  float64 `json:"guestUserSeconds"`
	Efficiency        float64 `json:"efficiency"`
	DiffBytes         int64   `json:"diffBytes"`
	ImageBytesFetched uint64  `json:"imageBytesFetched"`
	DataBytesFetched  uint64  `json:"dataBytesFetched"`
	WallSeconds       float64 `json:"wallSeconds"`
}

// QueryParams configures the query op (information service).
type QueryParams struct {
	Kind string `json:"kind"`
}

// QueryEntry is one information-service record in responses.
type QueryEntry struct {
	Kind  string         `json:"kind"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs"`
}

// TopNode is one node row of a top snapshot.
type TopNode struct {
	Name          string  `json:"name"`
	Site          string  `json:"site"`
	Slots         int     `json:"slots"`
	Runnable      int     `json:"runnable"`
	Load          float64 `json:"load"`
	PredictedLoad float64 `json:"predictedLoad,omitempty"`
	Crashed       bool    `json:"crashed,omitempty"`
}

// TopSession is one session row of a top snapshot.
type TopSession struct {
	Name               string  `json:"name"`
	State              string  `json:"state"`
	Node               string  `json:"node,omitempty"`
	Slowdown           float64 `json:"slowdown,omitempty"`
	VFSHitRate         float64 `json:"vfsHitRate,omitempty"`
	VFSTransportErrors uint64  `json:"vfsTransportErrors,omitempty"` // failed grid file system RPCs
	GuestSec           float64 `json:"guestSec,omitempty"`
	WallSeconds        float64 `json:"wallSeconds,omitempty"`
	Epoch              int64   `json:"epoch,omitempty"` // fencing epoch (0 until first failover)
}

// TopStaging is the chunked staging plane's grid-wide dedup summary
// (present only when chunked staging is enabled): how many chunk
// transfers the per-node caches answered locally, and the payload bytes
// that never crossed the wire because of it.
type TopStaging struct {
	ChunkHits   uint64  `json:"chunkHits"`
	ChunkMisses uint64  `json:"chunkMisses"`
	HitRate     float64 `json:"hitRate"`
	BytesSaved  uint64  `json:"bytesSaved"`
}

// TopReplica is one GIS replica row of a top snapshot (present only on
// grids running a replicated registry).
type TopReplica struct {
	Node string `json:"node"`
	// LagSec is how far the replica's newest entry trails the newest
	// entry anywhere in the cluster — nonzero while partitioned, zero
	// again once anti-entropy reconverges.
	LagSec float64 `json:"lagSec"`
}

// AlertInfo is one alert firing in top/alerts responses. ResolvedSec is
// negative while the alert is still active.
type AlertInfo struct {
	Rule        string  `json:"rule"`
	Series      string  `json:"series"`
	AtSec       float64 `json:"atSec"`
	Value       float64 `json:"value"`
	ResolvedSec float64 `json:"resolvedSec"`
}

// AlertRule describes one registered rule in the alerts response.
type AlertRule struct {
	Name string `json:"name"`
	Expr string `json:"expr"`
}

// TopInfo is the top op response: one scrape-fresh snapshot of the
// whole grid.
type TopInfo struct {
	VirtualSec float64      `json:"virtualSec"`
	Scrapes    int          `json:"scrapes"`
	Nodes      []TopNode    `json:"nodes"`
	Sessions   []TopSession `json:"sessions"`
	Staging    *TopStaging  `json:"staging,omitempty"`  // chunk dedup, if enabled
	Replicas   []TopReplica `json:"replicas,omitempty"` // GIS replicas, if clustered
	Alerts     []AlertInfo  `json:"alerts"`             // active firings only
}

// AlertsInfo is the alerts op response: the rule set plus the full
// firing log.
type AlertsInfo struct {
	Rules   []AlertRule `json:"rules"`
	Firings []AlertInfo `json:"firings"`
}

// TraceInfo is the trace op response: a session's full causal tree
// (every span sharing its TraceID, in recording order) plus the
// postmortem report computed over it. Report is omitted when the
// session root has not closed yet or the tracer retains no spans.
type TraceInfo struct {
	Session string           `json:"session"`
	Trace   string           `json:"trace"` // hex TraceID
	Spans   []obs.SpanRecord `json:"spans"`
	Report  *obs.Report      `json:"report,omitempty"`
}

// IncidentRef names an incident bundle for the incident op.
type IncidentRef struct {
	ID string `json:"id"`
}

// IncidentInfo is one row of the incidents op response.
type IncidentInfo struct {
	ID      string  `json:"id"`
	Trigger string  `json:"trigger"`
	Subject string  `json:"subject"`
	AtSec   float64 `json:"atSec"`
	// SealedSec is negative while the incident is still open.
	SealedSec float64 `json:"sealedSec"`
	Sealed    bool    `json:"sealed"`
	// Causal is how many spans the bundle's causal capture holds.
	Causal int `json:"causal"`
	// Root names the postmortem's root span ("" for rootless snapshots).
	Root string `json:"root,omitempty"`
}

// WatchParams configures the watch op: Count streamed top frames,
// EverySec virtual seconds apart (default 1 s).
type WatchParams struct {
	Count    int     `json:"count"`
	EverySec float64 `json:"everySec,omitempty"`
}

func marshal(v any) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	return b, nil
}

func unmarshal[T any](raw json.RawMessage) (T, error) {
	var v T
	if len(raw) == 0 {
		return v, fmt.Errorf("wire: missing params")
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("wire: params: %w", err)
	}
	return v, nil
}
