// Package sse reads server-sent-events streams: the framing the serve
// tier's /v1/runs/{id}/events and /v1/sweeps responses use. The
// public client and the server's peer proxy share this one parser.
package sse

import (
	"bufio"
	"errors"
	"io"
)

// maxFrame bounds one line of the stream: a sweep result frame embeds a
// whole marshaled Result.
const maxFrame = 64 << 20

// ErrStop, returned from a Read callback, ends the read cleanly: Read
// returns nil without consuming further frames.
var ErrStop = errors.New("sse: stop")

// Read parses a server-sent-events stream, invoking fn once per frame
// with the event name and data payload. Multiple data lines of one
// frame are concatenated; comment and unknown lines are ignored, as
// are frames without data. Read returns when the stream ends, fn
// returns an error (ErrStop ends it with nil), or reading fails.
func Read(r io.Reader, fn func(event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	// Start small and grow on demand: most frames are a few hundred
	// bytes, and the proxy opens a stream per followed run.
	sc.Buffer(nil, maxFrame)
	event := ""
	var data []byte
	flush := func() error {
		if len(data) == 0 {
			event = ""
			return nil
		}
		err := fn(event, data)
		event, data = "", nil
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		case len(line) > 7 && line[:7] == "event: ":
			event = line[7:]
		case len(line) > 6 && line[:6] == "data: ":
			data = append(data, line[6:]...)
		}
	}
	if err := flush(); err != nil && !errors.Is(err, ErrStop) {
		return err
	}
	return sc.Err()
}
