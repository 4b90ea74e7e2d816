package kernel

// tableTasks returns every task in the table, exited or not, by scanning
// all shards.
func tableTasks(k *Kernel) []*Task {
	var out []*Task
	for i := range k.shards {
		sh := &k.shards[i]
		sh.mu.RLock()
		for _, t := range sh.m {
			out = append(out, t)
		}
		sh.mu.RUnlock()
	}
	return out
}

// TableThreads counts the published, unexited tasks of proc by a full
// table scan: the reference Task.ThreadsInProc is checked against.
func TableThreads(k *Kernel, proc uint64) int {
	n := 0
	for _, t := range tableTasks(k) {
		if t.Proc == proc && !t.exited.Load() {
			n++
		}
	}
	return n
}
