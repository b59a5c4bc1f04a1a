package dimemas

import "repro/internal/trace"

// BuildIndex exposes the replay index builder to the external test package,
// which needs workload (an importer of dimemas) to generate its traces.
func BuildIndex(t *trace.Trace) error {
	return buildIndex(t).(*traceIndex).err
}
