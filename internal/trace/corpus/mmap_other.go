//go:build !unix

package corpus

// mmapFile always fails on platforms without a memory-mapping
// implementation; Open reads the file into memory instead.
func mmapFile(string) ([]byte, func() error, error) {
	return nil, nil, errMmapUnavailable
}
