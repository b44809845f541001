package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"memsynth/internal/store"
)

// PeerClient implements store.Peer against another memsynthd's suites
// API: a local store miss fetches the full bundle (manifest + texts)
// from the peer and persists it verbatim. Workers point one at the
// coordinator to make the coordinator's store the cluster's shared
// cache tier.
type PeerClient struct {
	base   string
	client *http.Client
}

// NewPeerClient builds a peer over the given base URL (e.g.
// "http://coord:8080"); a nil client uses http.DefaultClient.
func NewPeerClient(base string, client *http.Client) *PeerClient {
	if client == nil {
		client = http.DefaultClient
	}
	return &PeerClient{base: base, client: client}
}

// FetchSuite implements store.Peer via GET /v1/suites/{digest}/bundle.
func (p *PeerClient) FetchSuite(ctx context.Context, digest string) (*store.StoredSuite, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/v1/suites/"+digest+"/bundle", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, store.ErrNotFound
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: peer fetch of %.12s: status %d", digest, resp.StatusCode)
	}
	var ss store.StoredSuite
	if err := json.NewDecoder(resp.Body).Decode(&ss); err != nil {
		return nil, fmt.Errorf("cluster: peer fetch of %.12s: %w", digest, err)
	}
	if ss.Manifest == nil {
		return nil, fmt.Errorf("cluster: peer fetch of %.12s: bundle without manifest", digest)
	}
	return &ss, nil
}
