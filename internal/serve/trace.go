package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// TraceError is a typed arrival-trace parse failure, carrying the 1-based
// line it occurred on. Malformed traces always surface as *TraceError (or
// an I/O error from the reader) — never a panic — so a fuzzer or an
// operator feeding a bad file gets a diagnosis, not a crash.
type TraceError struct {
	Line int
	Msg  string
}

func (e *TraceError) Error() string {
	return fmt.Sprintf("serve: arrival trace line %d: %s", e.Line, e.Msg)
}

// ParseArrivalTrace reads a textual arrival trace: one request per line as
// "<timestamp_us> <item>", both non-negative integers, timestamps strictly
// increasing. Blank lines and '#' comments are skipped. The returned
// requests carry times in seconds.
func ParseArrivalTrace(r io.Reader) ([]Request, error) {
	sc := bufio.NewScanner(r)
	var reqs []Request
	lastUS := int64(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, &TraceError{Line: line, Msg: fmt.Sprintf("want \"<timestamp_us> <item>\", got %d fields", len(fields))}
		}
		us, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, &TraceError{Line: line, Msg: fmt.Sprintf("bad timestamp %q", fields[0])}
		}
		if us < 0 {
			return nil, &TraceError{Line: line, Msg: fmt.Sprintf("negative timestamp %d", us)}
		}
		if us == lastUS {
			return nil, &TraceError{Line: line, Msg: fmt.Sprintf("duplicate timestamp %dus", us)}
		}
		if us < lastUS {
			return nil, &TraceError{Line: line, Msg: fmt.Sprintf("timestamp %dus out of order (after %dus)", us, lastUS)}
		}
		item, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, &TraceError{Line: line, Msg: fmt.Sprintf("bad item id %q", fields[1])}
		}
		if item < 0 {
			return nil, &TraceError{Line: line, Msg: fmt.Sprintf("negative item id %d", item)}
		}
		lastUS = us
		reqs = append(reqs, Request{Time: float64(us) / 1e6, Item: int32(item), Seq: len(reqs)})
	}
	if err := sc.Err(); err != nil {
		return nil, &TraceError{Line: line + 1, Msg: err.Error()}
	}
	return reqs, nil
}

// FormatArrivalTrace writes reqs in ParseArrivalTrace's format (times
// rounded to whole microseconds).
func FormatArrivalTrace(w io.Writer, reqs []Request) error {
	for _, r := range reqs {
		if _, err := fmt.Fprintf(w, "%d %d\n", int64(math.Round(r.Time*1e6)), r.Item); err != nil {
			return fmt.Errorf("serve: writing arrival trace: %w", err)
		}
	}
	return nil
}
