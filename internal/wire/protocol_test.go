package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// protocolStep is one request of the scripted protocol session.
type protocolStep struct {
	op     string
	params any
}

// protocolScript drives a seed-1 grid through every request/response
// op (watch streams, so it has its own tests), including their error
// paths: bad params, unknown nodes, sessions and incidents, a policy
// nobody knows, a state-machine violation and an op nobody serves.
func protocolScript() []protocolStep {
	ghost := SessionRef{Session: "ghost"}
	alice := SessionRef{Session: "sess-2-alice"}
	steps := []protocolStep{
		{"ping", nil},
		{"frobnicate", nil},
		{"add-node", nil},
		{"add-node", AddNodeParams{Name: "x", Roles: []string{"warlock"}}},
		{"add-node", AddNodeParams{Name: "front", Site: "nwu", Roles: []string{"front-end"}}},
		{"add-node", AddNodeParams{Name: "compute1", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.0."}},
		{"add-node", AddNodeParams{Name: "compute2", Site: "nwu", Roles: []string{"compute"}, Slots: 2, DHCPPrefix: "10.1.1."}},
		{"add-node", AddNodeParams{Name: "data", Site: "nwu", Roles: []string{"data-server"}}},
		{"add-node", AddNodeParams{Name: "images", Site: "ufl", Roles: []string{"image-server", "data-server"}}},
		{"connect", ConnectParams{A: "front", B: "nowhere", Kind: "lan"}},
		{"connect", ConnectParams{A: "front", B: "data", Kind: "fiber"}},
	}
	lan := []string{"front", "compute1", "compute2", "data"}
	for i, a := range lan {
		for _, b := range lan[i+1:] {
			steps = append(steps, protocolStep{"connect", ConnectParams{A: a, B: b}})
		}
	}
	for _, a := range []string{"front", "compute1", "compute2"} {
		steps = append(steps, protocolStep{"connect", ConnectParams{A: a, B: "images", Kind: "wan"}})
	}
	for _, node := range []string{"compute1", "compute2", "images"} {
		steps = append(steps, protocolStep{"install-image", InstallImageParams{
			Node: node, Name: "rh72", OS: "redhat-7.2", MemBytes: 128 << 20,
		}})
	}
	session := func(user, hint string) SessionParams {
		return SessionParams{
			User: user, FrontEnd: "front", Image: "rh72",
			Mode: "restore", Disk: "non-persistent", Access: "local",
			DataNode: "data", DataFile: "dataset", NodeHint: hint,
		}
	}
	return append(steps, []protocolStep{
		{"install-image", InstallImageParams{Node: "nowhere", Name: "rh72"}},
		{"create-data", CreateDataParams{Node: "data", File: "dataset", Bytes: 1 << 30}},
		{"create-data", CreateDataParams{Node: "nowhere", File: "dataset", Bytes: 1}},
		{"query", QueryParams{Kind: "vm-future"}},
		{"query", QueryParams{Kind: "host"}},
		{"new-session", SessionParams{User: "u", FrontEnd: "front", Image: "rh72", Mode: "warp"}},
		{"new-session", SessionParams{User: "u", FrontEnd: "nope", Image: "rh72"}},
		{"new-session", SessionParams{User: "u", FrontEnd: "front", Image: "rh72", Place: "warp-speed"}},
		{"new-session", SessionParams{User: "u", FrontEnd: "front", Image: "rh72", Site: "mars"}},
		{"new-session", session("alice", "compute1")},
		{"new-session", SessionParams{
			User: "bob", FrontEnd: "front", Image: "rh72",
			Mode: "reboot", Disk: "persistent", Access: "staged", Place: "least-loaded",
		}},
		{"run", RunParams{Session: "ghost", Name: "x", CPUSeconds: 1}},
		{"run", RunParams{
			Session: "sess-2-alice", Name: "job", CPUSeconds: 30, PrivPerSec: 50,
			Reads: 8, ReadBytes: 1 << 20, Mount: "data",
		}},
		{"usage", alice},
		{"usage", ghost},
		{"migrate", MigrateParams{Session: "ghost", Target: "compute2"}},
		{"migrate", MigrateParams{Session: "sess-2-alice", Target: "compute2"}},
		{"hibernate", alice},
		{"hibernate", alice},
		{"hibernate", ghost},
		{"wake", alice},
		{"wake", ghost},
		{"status", nil},
		{"top", nil},
		{"alerts", nil},
		{"metrics", nil},
		{"spans", nil},
		{"trace", alice},
		{"trace", ghost},
		{"incidents", nil},
		{"incident", IncidentRef{ID: "inc-999-nope"}},
		{"incident", nil},
		{"shutdown", SessionRef{Session: "sess-3-bob"}},
		{"shutdown", ghost},
		{"shutdown", alice},
		{"status", nil},
	}...)
}

// protocolStream runs the script through call and renders every
// response: its data bytes, its error text and the wire code the error
// decodes to.
func protocolStream(t *testing.T, call func(op string, params, out any) error) []string {
	t.Helper()
	var stream []string
	for _, st := range protocolScript() {
		var data json.RawMessage
		err := call(st.op, st.params, &data)
		line := fmt.Sprintf("%s data=%s", st.op, data)
		if err != nil {
			line += fmt.Sprintf(" err=%q code=%q", err.Error(), ErrorCode(err))
		}
		stream = append(stream, line)
		if st.params == (SessionRef{Session: "ghost"}) && !errors.Is(err, ErrUnknownSession) {
			t.Errorf("%s on a ghost session = %v, want ErrUnknownSession", st.op, err)
		}
	}
	return stream
}

// protocolDigest is the SHA-256 of the scripted stream. It pins every
// response byte, error text and error code of the protocol: a change
// that moves it changes what clients see.
const protocolDigest = "d05e37db68eee9a614d9b08ca040c3262e7be2ae2c0b32d0a47c4ed905f4f7b1"

// TestProtocolStreamPinned runs the same script in process and over
// TCP against two seed-1 servers. The two response streams must be
// equal, and their digest must match the pin.
func TestProtocolStreamPinned(t *testing.T) {
	l := NewLocal(NewServer(1))
	local := protocolStream(t, func(op string, params, out any) error { return l.Call(op, params, out) })

	srv := NewServer(1)
	if err := srv.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	remote := protocolStream(t, func(op string, params, out any) error { return c.Call(op, params, out) })

	if len(local) != len(remote) {
		t.Fatalf("local stream has %d responses, TCP %d", len(local), len(remote))
	}
	for i := range local {
		if local[i] != remote[i] {
			t.Errorf("response %d differs:\n local %.300s\n   tcp %.300s", i, local[i], remote[i])
		}
	}
	joined := strings.Join(local, "\n")
	sum := sha256.Sum256([]byte(joined))
	if got := hex.EncodeToString(sum[:]); got != protocolDigest {
		t.Errorf("protocol digest = %s, want %s", got, protocolDigest)
		for _, line := range local {
			t.Logf("%.200s", line)
		}
	}
}
