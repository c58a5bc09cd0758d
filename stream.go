package crh

import (
	"io"

	"github.com/crhkit/crh/internal/mapreduce"
	"github.com/crhkit/crh/internal/stream"
)

// Streaming (incremental) CRH — Algorithm 2 of the paper. Data arriving
// in timestamped chunks is processed one chunk at a time: truths for the
// chunk come from the source weights learned so far, and the weights are
// refreshed from decayed accumulated distances without revisiting past
// data.

// StreamOptions configures incremental CRH: the shared loss/scheme
// configuration plus the decay rate α controlling how fast past chunks'
// influence fades.
type StreamOptions = stream.Config

// StreamResult is the outcome of a full streaming run: a truth table
// aligned with the original dataset, the final weights, and the
// per-chunk weight trajectory.
type StreamResult = stream.Result

// StreamProcessor consumes chunks one at a time, for truly unbounded
// streams where no complete dataset ever exists.
type StreamProcessor = stream.Processor

// Chunk is one timestamped batch carved from a dataset.
type Chunk = stream.Chunk

// RunStream applies I-CRH over a timestamped dataset, splitting it into
// windows of `window` consecutive timestamps (e.g., days).
func RunStream(d *Dataset, window int, opts StreamOptions) (*StreamResult, error) {
	return stream.Run(d, window, opts)
}

// NewStreamProcessor returns a processor for an unbounded stream whose
// chunks share the given source count.
func NewStreamProcessor(numSources int, opts StreamOptions) *StreamProcessor {
	return stream.NewProcessor(numSources, opts)
}

// ChunksByWindow splits a timestamped dataset into consecutive windows,
// retaining the mapping back to original object indices.
func ChunksByWindow(d *Dataset, window int) ([]Chunk, error) {
	return stream.ChunksByWindow(d, window)
}

// Parallel CRH — Section 2.7 of the paper: CRH as iterated MapReduce jobs
// over (entry, value, source) tuples, for data sets that need distributed
// processing. The in-process engine executes the same job structure a
// Hadoop deployment would (mappers, combiner, sorted shuffle, reducers).

// ParallelOptions configures a parallel fusion: the shared core options,
// the mapper/reducer pool sizes, and the cluster cost model used to
// estimate what the job sequence would cost on a real deployment.
type ParallelOptions = mapreduce.ParallelConfig

// ParallelResult is a parallel fusion's outcome: truths, weights, per-job
// engine statistics, and measured plus model-estimated runtimes.
type ParallelResult = mapreduce.ParallelResult

// RunParallel executes CRH as iterated MapReduce jobs (one truth job and
// one weight job per iteration). With the paper's default losses the
// result is identical to Run's.
func RunParallel(d *Dataset, opts ParallelOptions) (*ParallelResult, error) {
	return mapreduce.RunParallel(d, opts)
}

// TSVStream incrementally reads the library's TSV observation format,
// yielding one timestamp-window chunk at a time without materializing the
// stream — for never-ending feeds that cannot be loaded with ReadDataset.
// It reads records through ReadDataset's reader, so an input ReadDataset
// rejects fails here at the same line with the same error. Records must
// arrive in non-decreasing timestamp order with each object's
// O record before its V records; new sources and properties may join
// mid-stream (the Processor grows to accommodate them).
type TSVStream = stream.TSVStream

// NewTSVStream wraps a reader producing the TSV observation format.
// window is the number of consecutive timestamps per chunk.
func NewTSVStream(r io.Reader, window int) (*TSVStream, error) {
	return stream.NewTSVStream(r, window)
}
