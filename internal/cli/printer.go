package cli

import (
	"fmt"
	"io"
)

// Printer wraps a command's output stream and remembers the first write
// error, so mains can print freely and fold one deferred error into
// their exit code instead of checking every call site (a broken pipe or
// full disk must not be silently swallowed — see the errdrop analyzer).
type Printer struct {
	W   io.Writer
	Err error
}

// Printf formats to the underlying writer; after the first write error
// it becomes a no-op.
func (p *Printer) Printf(format string, args ...any) {
	if p.Err != nil {
		return
	}
	_, p.Err = fmt.Fprintf(p.W, format, args...)
}

// Write makes a Printer an io.Writer, for encoders such as csv.Writer,
// with the same first-error memory.
func (p *Printer) Write(b []byte) (int, error) {
	if p.Err != nil {
		return 0, p.Err
	}
	n, err := p.W.Write(b)
	p.Err = err
	return n, err
}
