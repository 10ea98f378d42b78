package strace

import (
	"bufio"
	"io"
)

// MaxLine bounds one line of strace output, its newline included; a
// longer line (a pathological argument list, a corrupt trace) is
// skipped whole.
const MaxLine = 1 << 20

// Splitter is the one line reader of every strace input: Parse, POST
// /events and seerd's local trace. It skips lines over its limit, and
// at io.EOF it keeps an unterminated last line for the input's growth
// to complete, unless Final says the input is whole.
type Splitter struct {
	// Final makes an unterminated last line a line at io.EOF.
	Final    bool
	br       *bufio.Reader
	max      int
	tail     []byte // the current line so far
	skipping bool   // the current line is over the limit
	read     int64
	off      int64 // bytes read through the last newline
}

// NewSplitter returns a Splitter over r with the MaxLine limit.
func NewSplitter(r io.Reader) *Splitter {
	return &Splitter{br: bufio.NewReaderSize(r, 64<<10), max: MaxLine}
}

// Next returns the next line without its newline. It returns io.EOF at
// the end of the input, from which a later Next goes on once the input
// grows, and any other read error as it is.
func (s *Splitter) Next() (string, error) {
	for {
		chunk, err := s.br.ReadSlice('\n')
		s.read += int64(len(chunk))
		if !s.skipping {
			s.tail = append(s.tail, chunk...)
		}
		if err == io.EOF && s.Final && (len(s.tail) > 0 || s.skipping) {
			s.tail, err = append(s.tail, '\n'), nil // the input ends the line
		}
		if len(s.tail) > s.max {
			s.skipping, s.tail = true, s.tail[:0]
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return "", err
		}
		s.off = s.read
		line := s.tail
		s.tail = s.tail[:0]
		if s.skipping {
			s.skipping = false
			continue
		}
		return string(line[:len(line)-1]), nil
	}
}

// Offset returns how many bytes precede the current line: the lines
// Next returned or skipped, with their newlines.
func (s *Splitter) Offset() int64 { return s.off }

// EachLine calls fn with every line of r within MaxLine, an
// unterminated last one included, and returns r's read error, if any.
func EachLine(r io.Reader, fn func(string)) error {
	s := NewSplitter(r)
	s.Final = true
	for {
		line, err := s.Next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		fn(line)
	}
}
