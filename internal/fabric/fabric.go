package fabric

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FillPath is the peer cache-fill endpoint every fabric node serves.
const FillPath = "/fabric/v1/fill"

// OwnerPath is the routing-introspection endpoint: POST a source (and
// optional technique list) and the node answers which peer owns its
// key. Operational tooling and the two-node CI smoke use it to aim
// requests at (or away from) an owner deterministically.
const OwnerPath = "/fabric/v1/owner"

// FillHeader marks fabric-internal requests. An owner never peer-fills
// while answering a fill — the header breaks any possibility of a
// routing loop when two nodes' rings disagree during a config rollout.
const FillHeader = "X-Polaris-Fabric"

// DefaultFillTimeout bounds one peer fill attempt. It is deliberately
// strict — a fill that is not clearly faster than a local compile is
// not worth waiting for, and a hung owner must never stall a request
// beyond this.
const DefaultFillTimeout = 2 * time.Second

// FillRequest asks a key's owner for the compiled entry. The source
// rides along so an owner that misses can compile (once, under its own
// singleflight) and stay warm — after that, every node's miss for this
// key fills from the owner instead of recompiling. On the wire the body
// is the source itself and the rest rides in X-Polaris-Fill-* headers.
type FillRequest struct {
	Source     string
	Techniques []string
	// TimeoutMS caps the owner-side compile (clamped by the owner).
	TimeoutMS int64
}

// The fill request's envelope. The schema header names the entry
// schema the requester decodes; an owner refuses a request without it.
const (
	fillSchemaHeader     = "X-Polaris-Fill-Schema"
	fillTechniquesHeader = "X-Polaris-Fill-Techniques"
	fillTimeoutHeader    = "X-Polaris-Fill-Timeout-Ms"
)

// The fill answer's envelope: the body is the entry (EncodeEntry's
// bytes, Content-Length set) and everything about it rides in headers,
// so neither side wraps, escapes or copies the entry to move it.
const (
	fillOutcomeHeader  = "X-Polaris-Fill-Outcome"
	fillLeaderHeader   = "X-Polaris-Fill-Leader"
	fillChecksumHeader = "X-Polaris-Fill-Checksum"
)

const (
	// maxFillBody bounds a fill body: the entry for a large program is
	// itself large, and a misbehaving peer must not balloon this node's
	// memory.
	maxFillBody = 64 << 20
	// maxFillPrealloc is the largest Content-Length Fill believes before
	// the bytes arrive. Up to it the body is read into one buffer of
	// exactly that size; past it (or with no length) the buffer grows
	// with what has actually been received, so a peer that lies about
	// the length costs at most this much.
	maxFillPrealloc = 1 << 20
)

var fillReads = sync.Pool{New: func() any { return new([16 << 10]byte) }}

// ReadFillRequest is the owner's side of a fill request: the envelope
// from r's headers and the source from its body, which the caller has
// bounded. A request that does not declare EntrySchema is refused
// before its body is read, so an owner never takes an older requester's
// JSON document for Fortran source. The source is read into a buffer
// that grows with the bytes received, whatever length was declared: the
// owner reads before admission, so a requester that declares a large
// source and stalls must cost it only what has arrived.
func ReadFillRequest(r *http.Request) (FillRequest, error) {
	var freq FillRequest
	if got := r.Header.Get(fillSchemaHeader); got != strconv.Itoa(EntrySchema) {
		return freq, fmt.Errorf("fabric: fill request for entry schema %q, this owner encodes %d", got, EntrySchema)
	}
	if t := r.Header.Get(fillTechniquesHeader); t != "" {
		freq.Techniques = strings.Split(t, ",")
	}
	if t := r.Header.Get(fillTimeoutHeader); t != "" {
		ms, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			return freq, fmt.Errorf("fabric: fill timeout: %w", err)
		}
		freq.TimeoutMS = ms
	}
	src, err := io.ReadAll(r.Body)
	if err != nil {
		return freq, fmt.Errorf("fabric: fill request body: %w", err)
	}
	freq.Source = string(src)
	return freq, nil
}

// FillResponse is the owner's answer as the requester reads it: the
// serialized entry, its checksum, and how the owner satisfied it (cold
// = the distributed tier missed and the owner compiled; cache_hit /
// coalesced = the tier was warm).
type FillResponse struct {
	Outcome  string
	LeaderID string
	Checksum string
	Entry    string
}

// SetFillHeaders writes the envelope of an owner's answer; the body
// that must follow is the entry of size bytes, whole.
func SetFillHeaders(h http.Header, outcome, leaderID, checksum string, size int) {
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(size))
	h.Set(fillOutcomeHeader, outcome)
	if leaderID != "" {
		h.Set(fillLeaderHeader, leaderID)
	}
	h.Set(fillChecksumHeader, checksum)
}

// OwnerRequest is the OwnerPath body.
type OwnerRequest struct {
	Source     string   `json:"source"`
	Techniques []string `json:"techniques,omitempty"`
}

// OwnerResponse names the owner of a key.
type OwnerResponse struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Self  bool   `json:"self"`
}

// Fabric is one node's view of the peer tier: who it is, where its
// peers listen, and the ring that assigns every cache key an owner.
type Fabric struct {
	self  string
	peers map[string]string // node name → base URL (self may be absent)
	nodes []string          // every ring member, sorted
	ring  *Ring
	http  *http.Client
	// fillTimeout bounds one fill attempt end to end.
	fillTimeout time.Duration
}

// Config describes one node's fabric membership.
type Config struct {
	// Self is this node's name on the ring.
	Self string
	// Peers maps node names to base URLs ("http://host:port"). Self
	// may appear (its URL is ignored); all names join the ring.
	Peers map[string]string
	// FillTimeout bounds one peer fill attempt (default
	// DefaultFillTimeout).
	FillTimeout time.Duration
	// Transport overrides the HTTP transport (tests).
	Transport http.RoundTripper
}

// New builds a node's fabric. Self always joins the ring, so every
// node agrees on ownership whether or not the config lists itself as
// a peer.
func New(cfg Config) (*Fabric, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("fabric: Self must be set")
	}
	nodes := map[string]bool{cfg.Self: true}
	peers := make(map[string]string, len(cfg.Peers))
	for name, url := range cfg.Peers {
		if name == "" || (name != cfg.Self && url == "") {
			return nil, fmt.Errorf("fabric: peer %q needs both a name and a URL", name)
		}
		nodes[name] = true
		peers[name] = strings.TrimRight(url, "/")
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	ft := cfg.FillTimeout
	if ft <= 0 {
		ft = DefaultFillTimeout
	}
	return &Fabric{
		self:        cfg.Self,
		peers:       peers,
		nodes:       names,
		ring:        NewRing(names),
		fillTimeout: ft,
		http: &http.Client{
			Transport: cfg.Transport,
			// The per-attempt context deadline governs; this is the
			// last-resort backstop against a leaked request.
			Timeout: ft + time.Second,
		},
	}, nil
}

// Self returns this node's ring name.
func (f *Fabric) Self() string { return f.self }

// Nodes returns every ring member, sorted.
func (f *Fabric) Nodes() []string { return f.nodes }

// FillTimeout returns the per-attempt fill deadline.
func (f *Fabric) FillTimeout() time.Duration { return f.fillTimeout }

// Owner resolves a route key to its owning node. isSelf reports that
// this node owns the key (compile locally, authoritative); otherwise
// url is where to ask, or "" when the owner has no known address (a
// misconfigured peer list — treat as self-owned).
func (f *Fabric) Owner(key string) (node, url string, isSelf bool) {
	node = f.ring.Owner(key)
	if url = f.peers[node]; node == "" || node == f.self || url == "" {
		return node, "", true
	}
	return node, url, false
}

// Fill asks the owner at baseURL for a key's compiled entry, under the
// fabric's strict fill deadline (child of ctx, so a dying request
// never waits on a dying peer). Any transport failure, non-200 status,
// incomplete envelope (an owner of a build that still wrapped the
// entry in JSON sends none), oversized or short body is an error; the
// caller compiles locally.
func (f *Fabric) Fill(ctx context.Context, baseURL string, freq FillRequest) (*FillResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, f.fillTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+FillPath, strings.NewReader(freq.Source))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(FillHeader, "1")
	req.Header.Set(fillSchemaHeader, strconv.Itoa(EntrySchema))
	if len(freq.Techniques) > 0 {
		req.Header.Set(fillTechniquesHeader, strings.Join(freq.Techniques, ","))
	}
	if freq.TimeoutMS > 0 {
		req.Header.Set(fillTimeoutHeader, strconv.FormatInt(freq.TimeoutMS, 10))
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200)) // best effort: the status is the error
		return nil, fmt.Errorf("fabric: owner answered %d: %s", resp.StatusCode, msg)
	}
	fr := &FillResponse{
		Outcome:  resp.Header.Get(fillOutcomeHeader),
		LeaderID: resp.Header.Get(fillLeaderHeader),
		Checksum: resp.Header.Get(fillChecksumHeader),
	}
	if fr.Outcome == "" || fr.Checksum == "" {
		return nil, fmt.Errorf("fabric: owner sent no fill envelope (outcome %q, checksum %q)", fr.Outcome, fr.Checksum)
	}
	// One builder, grown to a believable Content-Length, reads the body
	// through a pooled buffer: its string is the entry the cache keeps.
	n := resp.ContentLength
	if n > maxFillBody {
		return nil, fmt.Errorf("fabric: fill body of %d bytes exceeds %d", n, maxFillBody)
	}
	var b strings.Builder
	if n >= 0 && n <= maxFillPrealloc {
		b.Grow(int(n))
	}
	buf := fillReads.Get().(*[16 << 10]byte)
	got, err := io.CopyBuffer(&b, io.LimitReader(resp.Body, maxFillBody+1), buf[:])
	fillReads.Put(buf)
	if err == nil && (got < n || got > maxFillBody) {
		err = fmt.Errorf("%d bytes where %d were promised, at most %d", got, n, maxFillBody)
	}
	if err != nil {
		return nil, fmt.Errorf("fabric: fill read: %w", err)
	}
	if fr.Entry = b.String(); fr.Entry == "" {
		return nil, fmt.Errorf("fabric: owner returned an empty entry")
	}
	return fr, nil
}
