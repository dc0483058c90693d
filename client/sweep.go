package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"nocstar"
	"nocstar/internal/sse"
)

// SweepResult is one streamed sweep leg: the terminal status of the
// config at Index in the submitted batch.
type SweepResult struct {
	Index      int             `json:"index"`
	ID         string          `json:"id"`
	ConfigHash string          `json:"config_hash"`
	State      string          `json:"state"`
	Cached     bool            `json:"cached,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Decode unmarshals the leg's result bytes into out.
func (sr SweepResult) Decode(out *nocstar.Result) error {
	if sr.Result == nil {
		return fmt.Errorf("nocstar: sweep leg %d has no result (state %s)", sr.Index, sr.State)
	}
	return json.Unmarshal(sr.Result, out)
}

// SweepSummary is the sweep's terminal accounting frame.
type SweepSummary struct {
	Total       int `json:"total"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Canceled    int `json:"canceled"`
	CacheHits   int `json:"cache_hits"`
	Unsubmitted int `json:"unsubmitted,omitempty"`
}

// ErrStopSweep, returned from a Sweep callback, abandons the rest of
// the stream without error.
var ErrStopSweep = errors.New("nocstar: stop sweep")

// Sweep submits a whole batch of configs and streams each leg's
// terminal result to fn as it completes (completion order, not
// submission order). Returns the summary frame. The callback may
// return ErrStopSweep to abandon the stream early, or any other error
// to abort and surface it.
func (c *Client) Sweep(ctx context.Context, cfgs []nocstar.Config, fn func(SweepResult) error, opts ...RunOption) (SweepSummary, error) {
	raws := make([]json.RawMessage, len(cfgs))
	for i, cfg := range cfgs {
		b, err := cfg.MarshalCanonical()
		if err != nil {
			return SweepSummary{}, fmt.Errorf("nocstar: marshaling config %d: %w", i, err)
		}
		raws[i] = b
	}
	body, err := json.Marshal(raws)
	if err != nil {
		return SweepSummary{}, err
	}
	return c.SweepJSON(ctx, body, fn, opts...)
}

// SweepJSON is Sweep over a raw JSON array of config documents.
func (c *Client) SweepJSON(ctx context.Context, body []byte, fn func(SweepResult) error, opts ...RunOption) (SweepSummary, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/sweeps"+runQuery(opts), bytes.NewReader(body))
	if err != nil {
		return SweepSummary{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return SweepSummary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return SweepSummary{}, decodeError(resp)
	}
	var summary SweepSummary
	sawSummary := false
	err = sse.Read(resp.Body, func(event string, data []byte) error {
		switch event {
		case "result":
			var sr SweepResult
			if err := json.Unmarshal(data, &sr); err != nil {
				return fmt.Errorf("nocstar: decoding sweep result: %w", err)
			}
			if fn != nil {
				if err := fn(sr); err != nil {
					if errors.Is(err, ErrStopSweep) {
						return sse.ErrStop
					}
					return err
				}
			}
		case "summary":
			if err := json.Unmarshal(data, &summary); err != nil {
				return fmt.Errorf("nocstar: decoding sweep summary: %w", err)
			}
			sawSummary = true
			return sse.ErrStop
		}
		return nil
	})
	if err != nil {
		return summary, err
	}
	if !sawSummary {
		return summary, fmt.Errorf("nocstar: sweep stream ended without a summary")
	}
	return summary, nil
}
