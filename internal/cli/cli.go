// Package cli holds what the commands share beyond flag parsing: writing
// an artifact to the path an artifact flag names.
package cli

import (
	"bufio"
	"io"
	"os"
)

// Write writes one artifact. Path "-" selects stdout; any other path is
// created and written through a buffer, whose Flush reports the first
// failed write even when write's renderers return no error. Write returns
// the first of write's, the flush's and the close's errors, and closes the
// file on every path.
func Write(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
