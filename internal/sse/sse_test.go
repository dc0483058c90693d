package sse

import (
	"errors"
	"strings"
	"testing"
)

type frame struct{ event, data string }

func collect(t *testing.T, stream string, stopAt int) ([]frame, error) {
	t.Helper()
	var got []frame
	err := Read(strings.NewReader(stream), func(event string, data []byte) error {
		got = append(got, frame{event, string(data)})
		if len(got) == stopAt {
			return ErrStop
		}
		return nil
	})
	return got, err
}

func TestReadFrames(t *testing.T) {
	stream := ": comment\n" +
		"event: state\ndata: {\"a\":1}\n\n" +
		"event: empty\n\n" + // no data: skipped
		"data: {\"b\":\ndata: 2}\n\n" + // two data lines, no event name
		"event: summary\ndata: {}" // final frame without a blank line
	got, err := collect(t, stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []frame{{"state", `{"a":1}`}, {"", `{"b":2}`}, {"summary", `{}`}}
	if len(got) != len(want) {
		t.Fatalf("got %d frames %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadLargeFrame: a frame far beyond the scanner's initial buffer
// (a sweep result embeds a whole Result) is read intact.
func TestReadLargeFrame(t *testing.T) {
	big := strings.Repeat("x", 3<<20)
	got, err := collect(t, "event: result\ndata: "+big+"\n\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].data != big {
		t.Fatalf("large frame not read intact (%d frames)", len(got))
	}
}

func TestReadStop(t *testing.T) {
	stream := "data: 1\n\ndata: 2\n\ndata: 3\n\n"
	got, err := collect(t, stream, 2)
	if err != nil {
		t.Fatalf("ErrStop surfaced as %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d frames after stop at 2", len(got))
	}
	got, err = collect(t, "data: 1", 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("stop on a trailing frame: %v, %d frames", err, len(got))
	}
}

func TestReadCallbackError(t *testing.T) {
	boom := errors.New("boom")
	err := Read(strings.NewReader("data: x\n\n"), func(string, []byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the callback's error", err)
	}
}
