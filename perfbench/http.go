package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"memsynth/internal/server"
	"memsynth/internal/store"
)

// The HTTP helpers of the cluster workload: the benchmark's keep-alive
// client, synthesize requests, response checks and suite deletes.

// newClient is the benchmark's client of one cluster. It sends one request
// at a time, so it holds one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
}

// synthesize posts one synthesize request and reads the whole response.
func synthesize(c *http.Client, base string, req server.SynthesizeRequest) (*http.Response, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.Post(base+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("synthesize %s: status %d: %s", req.Model, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp, data, nil
}

// checkResponse checks a json synthesize response against its pin: the
// digest header and body, and every suite's count.
func checkResponse(pin requestPin, resp *http.Response, data []byte) error {
	if got := resp.Header.Get("X-Memsynth-Digest"); got != pin.Digest {
		return fmt.Errorf("digest %.12s, pinned %.12s", got, pin.Digest)
	}
	var sr server.SynthesizeResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return fmt.Errorf("digest %.12s: %w", pin.Digest, err)
	}
	if sr.Digest != pin.Digest {
		return fmt.Errorf("body digest %.12s, pinned %.12s", sr.Digest, pin.Digest)
	}
	return checkCounts(pin, sr.Suites)
}

// request is the json synthesize request for an engine spec.
func request(spec engineSpec) server.SynthesizeRequest {
	return server.SynthesizeRequest{
		Model:          spec.model,
		RequestOptions: store.RequestOptions{MaxEvents: spec.opts.MaxEvents, MaxThreads: spec.opts.MaxThreads, MaxAddrs: spec.opts.MaxAddrs},
		Format:         "json",
	}
}

func deleteSuite(c *http.Client, base, digest string) error {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/suites/"+digest, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("delete %.12s: status %d", digest, resp.StatusCode)
	}
	return nil
}
