package main

import "starlinkview/internal/wal"

// noSyncFS is the real filesystem with the device flush skipped. The WAL's
// segment files, framing, appends, group-commit timer and sync count are
// all real; only fsync and directory sync return at once, because on a
// shared disk their latency swings by two orders of magnitude with other
// tenants' I/O (0.1 ms to 27 ms measured on the same VM within an hour),
// which no code change controls and which swamped the ack latencies.
type noSyncFS struct{ wal.OSFS }

func (f noSyncFS) Create(name string) (wal.File, error) {
	fl, err := f.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{fl}, nil
}

func (f noSyncFS) OpenAppend(name string) (wal.File, error) {
	fl, err := f.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{fl}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ wal.File }

func (noSyncFile) Sync() error { return nil }
