/* Native MQB selection kernel and whole-run scheduling loops.
 *
 * Implements the hot inner loop of MQB scheduling — score every ready
 * candidate of one type, pick the lexicographically best balance
 * vector, and swap-remove the winner from the ready-pool buffers —
 * for repro.schedulers.mqb.MQB, and, around it,
 * repro_list_schedule: one complete non-preemptive run of the scalar
 * engine's loop for a static-priority or MQB scheduler or one of their
 * energy variants, with or without the fault seam, which
 * repro.sim.engine.simulate and repro.faults.simulate_with_faults call
 * once per run, and repro_preemptive_schedule, one complete
 * quantum-stepped run for repro.sim.preemptive.simulate_preemptive
 * (each loop's section lists the orders it mirrors).
 *
 * Bit-identity contract: every floating-point operation here replays
 * the numpy formulation in the same order on the same operands —
 *
 *   s[j]     = l[j] + extra[j]                (one add, then broadcast)
 *   r[j]     = d[v][j] + s[j]
 *   r[alpha] = r[alpha] - w[v]                (own work leaves its queue)
 *   r[j]     = r[j] / parr[j]
 *   r[j]     = r[j] * weights[j]              (EMQB only)
 *
 * followed by a comparison-only selection: "lex" sorts each candidate's
 * vector ascending and compares element-wise (index 0 most
 * significant), "min" compares the row minima, "sum" compares the
 * left-to-right row sums (callers must gate sum mode to K < 8, where
 * numpy's pairwise summation degenerates to the same sequential loop).
 * Ties between equal score vectors break on the *smallest* FIFO ready
 * sequence, exactly like the numpy lexsort's trailing -seq key.  Seqs
 * are unique within a pool, so the winner is a strict maximum and
 * independent of scan order.  The same holds for repro_list_schedule's
 * class pools, which hold one head per class of bit-identical (type,
 * work, descendant row) tasks: members of a class score bit-identically
 * against any l + extra, so only the class's lowest ready seq (its
 * head) can win the tie-break, and for NaN-free keys (key, seq) is a
 * strict total order, so the best head is the best member.
 *
 * The file doubles as a CPython extension (so `pip install -e .` with
 * a toolchain ships a prebuilt .so) and as a plain shared library for
 * the lazy `cc -shared -DREPRO_NO_PYTHON` ctypes build path; the
 * symbols are always consumed through ctypes, never through the
 * (empty) Python module.  Entry points (ABI 8):
 *
 *   repro_native_abi
 *   repro_mqb_pick_pop                  MQB picks
 *   repro_list_schedule                 whole static/MQB runs, faulty or not
 *   repro_preemptive_schedule           whole preemptive static/MQB runs
 *   repro_topo_levels                   KDag's level-order peel
 *   repro_bottom_levels, repro_top_levels,
 *   repro_different_child_distance      order-free offline sweeps
 *   repro_edd_schedule                  ShiftBT's EDD subproblem
 *   repro_descendant_values             the add sweeps
 *   repro_tree_expand                   generate_tree's expansion
 *
 * The offline passes and the tree expansion have their own sections at
 * the end of the file.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define REPRO_NATIVE_ABI 8
#define MODE_LEX 0
#define MODE_MIN 1
#define MODE_SUM 2

/* Keys live in fixed stack buffers; loaders must gate K <= this. */
#define REPRO_NATIVE_MAX_K 1024

typedef long long i64;

#if defined(_WIN32)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

EXPORT i64 repro_native_abi(void) { return REPRO_NATIVE_ABI; }

static void insertion_sort(double *a, i64 n) {
    for (i64 i = 1; i < n; i++) {
        double v = a[i];
        i64 j = i - 1;
        while (j >= 0 && a[j] > v) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = v;
    }
}

/* Lexicographic "is the candidate better than the incumbent": greater
 * key wins; on a full tie the smaller FIFO seq wins (the numpy path's
 * trailing -seq lexsort key). */
static int key_better(const double *cand, i64 cand_seq,
                      const double *best, i64 best_seq, i64 klen) {
    for (i64 j = 0; j < klen; j++) {
        if (cand[j] > best[j]) return 1;
        if (cand[j] < best[j]) return 0;
    }
    return cand_seq < best_seq;
}

/* Score candidate `drow` (its descendant-value row) into key[0..klen):
 * klen = K for lex (sorted vector), 1 for min/sum. */
static i64 score_candidate(const double *drow, double own_work,
                           const double *s, const double *parr,
                           i64 K, i64 alpha, i64 mode, double *key) {
    if (mode == MODE_LEX) {
        for (i64 j = 0; j < K; j++) {
            double v = drow[j] + s[j];
            if (j == alpha) v -= own_work;
            key[j] = v / parr[j];
        }
        insertion_sort(key, K);
        return K;
    }
    if (mode == MODE_MIN) {
        double best = 0.0;
        for (i64 j = 0; j < K; j++) {
            double v = drow[j] + s[j];
            if (j == alpha) v -= own_work;
            v /= parr[j];
            if (j == 0 || v < best) best = v;
        }
        key[0] = best;
        return 1;
    }
    /* MODE_SUM: numpy's pairwise summation over n < 8 elements is the
     * plain sequential loop below; callers gate K < 8. */
    double acc = 0.0;
    for (i64 j = 0; j < K; j++) {
        double v = drow[j] + s[j];
        if (j == alpha) v -= own_work;
        acc += v / parr[j];
    }
    key[0] = acc;
    return 1;
}

/* Scalar MQB pick + pop over the per-type pool buffers.
 *
 * dpool: m x K candidate descendant rows (row-major), wpool: m own
 * works, spool: m FIFO seqs.  Picks the best candidate, updates
 * l[alpha] -= w[win] (and extra += d[win] when carry), swap-removes
 * row `win` (last row moves into its slot), and returns the winner's
 * original slot so the caller can mirror the swap in its task
 * list/position dict.  Returns -1 on invalid arguments.
 */
EXPORT i64 repro_mqb_pick_pop(double *dpool, double *wpool, i64 *spool,
                              i64 m, i64 K, i64 alpha,
                              double *l, double *extra, const double *parr,
                              i64 mode, i64 carry) {
    double s[REPRO_NATIVE_MAX_K];
    double key_a[REPRO_NATIVE_MAX_K], key_b[REPRO_NATIVE_MAX_K];
    double saved[REPRO_NATIVE_MAX_K];

    if (m <= 0 || K <= 0 || K > REPRO_NATIVE_MAX_K) return -1;
    if (alpha < 0 || alpha >= K) return -1;
    if (mode < MODE_LEX || mode > MODE_SUM) return -1;
    if (mode == MODE_SUM && K >= 8) return -1;

    for (i64 j = 0; j < K; j++) s[j] = l[j] + extra[j];

    double *best_key = key_a, *cand_key = key_b;
    i64 klen = score_candidate(dpool, wpool[0], s, parr, K, alpha, mode,
                               best_key);
    i64 best = 0;
    i64 best_seq = spool[0];
    for (i64 i = 1; i < m; i++) {
        score_candidate(dpool + i * K, wpool[i], s, parr, K, alpha, mode,
                        cand_key);
        if (key_better(cand_key, spool[i], best_key, best_seq, klen)) {
            best = i;
            best_seq = spool[i];
            double *tmp = best_key;
            best_key = cand_key;
            cand_key = tmp;
        }
    }

    /* Commit: read the winner's row before the swap clobbers it. */
    double w_win = wpool[best];
    if (carry) {
        for (i64 j = 0; j < K; j++) saved[j] = dpool[best * K + j];
    }
    l[alpha] -= w_win;
    if (carry) {
        for (i64 j = 0; j < K; j++) extra[j] += saved[j];
    }
    i64 last = m - 1;
    if (best != last) {
        for (i64 j = 0; j < K; j++) dpool[best * K + j] = dpool[last * K + j];
        wpool[best] = wpool[last];
        spool[best] = spool[last];
    }
    return best;
}

/* EMQB's score: MQB's lex key with each x-utilization rescaled by its
 * type's weight, key[j] = (v / parr[j]) * weights[j] (numpy's
 * `r /= parr; r *= eweights`), sorted ascending. */
static i64 score_weighted(const double *drow, double own_work,
                          const double *s, const double *parr,
                          const double *weights, i64 K, i64 alpha,
                          double *key) {
    for (i64 j = 0; j < K; j++) {
        double v = drow[j] + s[j];
        if (j == alpha) v -= own_work;
        key[j] = (v / parr[j]) * weights[j];
    }
    insertion_sort(key, K);
    return K;
}

/* One MQB pick + commit over a pool of task ids: score candidates
 * ptask[0..*plen) (descendant rows d[t*K..], own works work[t])
 * against l + extra, then update extra (when carry) and l[alpha],
 * swap-remove the winner (the last slot moves into its place) and
 * return its task id.  weights: EMQB's per-type score weights (lex
 * mode), or NULL for MQB's own score.  s, key_a and key_b are K-double
 * scratch. */
static i64 pool_pick_commit(const double *d, const double *work,
                            const double *weights,
                            i64 *ptask, i64 *pseq, i64 *plen,
                            double *lrow, double *erow,
                            const double *prow, i64 K, i64 alpha,
                            i64 mode, i64 carry,
                            double *s, double *key_a, double *key_b) {
    i64 b = *plen;
    for (i64 j = 0; j < K; j++) s[j] = lrow[j] + erow[j];

    double *best_key = key_a, *cand_key = key_b;
    i64 best = 0;
    i64 best_seq = pseq[0];
    i64 klen;
    /* One scan per score, chosen once per pick: MQB's candidates run
     * no weight multiply and no per-candidate test for one. */
#define POOL_SCAN(SCORE)                                                  \
    klen = SCORE(ptask[0], best_key);                                     \
    for (i64 i = 1; i < b; i++) {                                         \
        SCORE(ptask[i], cand_key);                                        \
        if (key_better(cand_key, pseq[i], best_key, best_seq, klen)) {    \
            best = i;                                                     \
            best_seq = pseq[i];                                           \
            double *tmp = best_key;                                       \
            best_key = cand_key;                                          \
            cand_key = tmp;                                               \
        }                                                                 \
    }
#define PLAIN_SCORE(t, key) \
    score_candidate(d + (t) * K, work[t], s, prow, K, alpha, mode, key)
#define WEIGHTED_SCORE(t, key) \
    score_weighted(d + (t) * K, work[t], s, prow, weights, K, alpha, key)
    if (weights == NULL) {
        POOL_SCAN(PLAIN_SCORE)
    } else {
        POOL_SCAN(WEIGHTED_SCORE)
    }
#undef POOL_SCAN
#undef PLAIN_SCORE
#undef WEIGHTED_SCORE

    i64 wtask = ptask[best];
    if (carry) {
        const double *drow = d + wtask * K;
        for (i64 j = 0; j < K; j++) erow[j] += drow[j];
    }
    lrow[alpha] -= work[wtask];
    i64 last = b - 1;
    ptask[best] = ptask[last];
    pseq[best] = pseq[last];
    *plen = last;
    return wtask;
}

/* ------------------------------------------------------------------
 * Whole-run list scheduling (repro.sim.engine.simulate's C loop)
 * ------------------------------------------------------------------
 *
 * One complete non-preemptive run of _list_schedule for a scheduler
 * whose protocol is QueueScheduler's ("static") or MQB's ("mqb"),
 * statement for statement:
 *
 *   - ready heaps (static) and the completion heap hold Python's tuples
 *     (key, seq, task) and (finish, seq, task, proc), compared the way
 *     tuples compare (first unequal field decides, by `<`), and are
 *     sifted by heapq's own _siftdown/_siftup, so pop order is
 *     Python's even for NaN or infinite keys;
 *   - a task keeps the ready seq of its first announcement (the sticky
 *     rank of QueueScheduler.task_ready and MQB.task_ready);
 *   - free-processor stacks start as [P-1, ..., 0] and pop from the end;
 *   - a decision round runs when a task is ready and some type has both
 *     a free processor and a pending task; static rounds pop each
 *     type's heap in type order, MQB rounds replay MQB.assign (per
 *     pass, per type: take every ready task in pool insertion order
 *     when they fit the free count, else one pool_pick_commit); tasks
 *     are dispatched in chosen order, which sets their completion seq;
 *   - completions at one instant pop in (finish, seq) order, and a
 *     completed task's children become ready in child_idx order,
 *     taking the next ready seq.
 *
 * MQB's pools hold class heads, not tasks: one hash pass per run groups
 * the tasks into classes of bit-identical type, work and descendant
 * row (tree leaves: a handful of classes for thousands of tasks), each
 * class keeps its ready members in a FIFO in ready-seq order, and a
 * type's pool holds the head of each non-empty class.  A pick scores
 * heads only (exact; see the top of the file) and the winner's next
 * member takes its class's place in the pool.
 *
 * Two energy rows ride on the same rounds: EMQB is the MQB row scored
 * by score_weighted, and KGreedyConsolidate is the static row taking
 * min(free, cap - running) tasks per type, with running counted as the
 * class counts it (+1 on dispatch, -1 on completion or kill).
 *
 * The fault seam (repro.faults.engine._FaultSeam) is the same loop with
 * a timeline of FAIL/REPAIR entries, in FaultTimeline.events() order:
 *
 *   - entry i is the heap item (time, n + kill_budget + i, alpha, proc),
 *     above every dispatch's seq, so completions pop first at one
 *     instant; entries at t = 0 are applied before the first round and
 *     the rest are heapified as heapq.heapify does;
 *   - each processor remembers the dispatch it runs; a completion whose
 *     seq is not its processor's current one was killed and is skipped;
 *   - a FAIL on an idle processor removes it from its free stack in
 *     place (list.remove); on a busy one it kills the dispatch: the
 *     trace segment is cut at the failure and marked killed, and the
 *     victim is readied again with its first ready seq, under restart
 *     with its full work (wasted += now - start), under checkpoint with
 *     (start + work) - now, which later dispatches use;
 *   - a REPAIR pushes the processor onto its free stack;
 *   - MQB pools hold one task per class (its own) when the timeline has
 *     entries: a readied victim keeps its old seq and may shrink, so
 *     the class FIFOs' orders would no longer hold.
 *
 * Buffers are allocated per call and sized by what they hold; nothing
 * is process wide. */

#define ROW_STATIC 0
#define ROW_MQB 1

#define RUN_OK 0
#define RUN_BAD_INPUT -1
#define RUN_NO_MEMORY -2
#define RUN_STALLED -3
#define RUN_BUDGET -4
#define RUN_IDLE -5
#define RUN_TRACE_FULL -6
#define RUN_LIVELOCK -7

/* Largest kill budget the seam keys by; larger ones act alike (a run
 * kills at most once per FAIL entry). */
#define MAX_KILL_BUDGET ((i64)1 << 61)

/* The energy rows' vectors, shared by both whole-run loops: weights
 * (EMQB) only with the MQB row in lex mode, caps (KGreedyConsolidate)
 * only with the static row.  Weights must be finite and >= 0 and caps
 * >= 1, as EMQB and KGreedyConsolidate make them. */
static int rows_ok(i64 kind, i64 K, i64 mode, const double *weights,
                   const i64 *caps) {
    if (weights != NULL) {
        if (kind != ROW_MQB || mode != MODE_LEX) return 0;
        for (i64 j = 0; j < K; j++) {
            if (!(weights[j] >= 0.0) || isinf(weights[j])) return 0;
        }
    }
    if (caps != NULL) {
        if (kind != ROW_STATIC) return 0;
        for (i64 j = 0; j < K; j++) {
            if (caps[j] < 1) return 0;
        }
    }
    return 1;
}

typedef struct { double key; i64 seq; i64 task; } ready_item;
typedef struct { double finish; i64 seq; i64 task; i64 proc; } event_item;

/* Python tuple `<`: the first field that compares unequal decides. */
static int ready_lt(const ready_item *a, const ready_item *b) {
    if (!(a->key == b->key)) return a->key < b->key;
    if (a->seq != b->seq) return a->seq < b->seq;
    return a->task < b->task;
}

static int event_lt(const event_item *a, const event_item *b) {
    if (!(a->finish == b->finish)) return a->finish < b->finish;
    if (a->seq != b->seq) return a->seq < b->seq;
    if (a->task != b->task) return a->task < b->task;
    return a->proc < b->proc;
}

/* heapq._siftdown / _siftup / heappush / heappop, one copy per item
 * type. */
#define DEFINE_HEAP(T, LT)                                               \
    static void T##_siftdown(T *h, i64 start, i64 pos) {                 \
        T item = h[pos];                                                 \
        while (pos > start) {                                            \
            i64 parent = (pos - 1) >> 1;                                 \
            if (LT(&item, &h[parent])) {                                 \
                h[pos] = h[parent];                                      \
                pos = parent;                                            \
                continue;                                                \
            }                                                            \
            break;                                                       \
        }                                                                \
        h[pos] = item;                                                   \
    }                                                                    \
    static void T##_siftup(T *h, i64 len, i64 pos) {                     \
        i64 start = pos;                                                 \
        T item = h[pos];                                                 \
        i64 child = 2 * pos + 1;                                         \
        while (child < len) {                                            \
            i64 right = child + 1;                                       \
            if (right < len && !LT(&h[child], &h[right])) child = right; \
            h[pos] = h[child];                                           \
            pos = child;                                                 \
            child = 2 * pos + 1;                                         \
        }                                                                \
        h[pos] = item;                                                   \
        T##_siftdown(h, start, pos);                                     \
    }                                                                    \
    static void T##_push(T *h, i64 *len, T item) {                       \
        h[*len] = item;                                                  \
        *len += 1;                                                       \
        T##_siftdown(h, 0, *len - 1);                                    \
    }                                                                    \
    static T T##_pop(T *h, i64 *len) {                                   \
        *len -= 1;                                                       \
        T last = h[*len];                                                \
        if (*len == 0) return last;                                      \
        T top = h[0];                                                    \
        h[0] = last;                                                     \
        T##_siftup(h, *len, 0);                                          \
        return top;                                                      \
    }

DEFINE_HEAP(ready_item, ready_lt)
DEFINE_HEAP(event_item, event_lt)

/* heapq.heapify over the completion heap's item type. */
static void event_item_heapify(event_item *h, i64 len) {
    for (i64 i = len / 2 - 1; i >= 0; i--) event_item_siftup(h, len, i);
}

static double clock_seconds(void) {
#if defined(CLOCK_MONOTONIC)
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
#else
    return (double)clock() / CLOCKS_PER_SEC;
#endif
}

/* A fault timeline: n entries in FaultTimeline.events() order. */
typedef struct {
    i64 n;
    const double *time;
    const i64 *fail;        /* 1 FAIL, 0 REPAIR */
    const i64 *alpha, *proc;
} timeline;

/* Per-call state of one run. */
typedef struct {
    i64 kind, K, mode, carry;
    const i64 *types;
    const double *work;     /* what a dispatch runs: the tasks' work, or
                             * in a fault run `remaining` */
    const double *keys, *d;
    const double *weights;  /* emqb: per-type score weights, else NULL */
    const i64 *caps;        /* consolidate: per-type caps, else NULL */
    i64 *running;           /* consolidate: running tasks per type */
    i64 *type_off;          /* K+1 offsets of per-type regions: static
                             * heaps (by tasks), mqb pools (by classes) */
    i64 *proc_off;          /* K+1 offsets of free-processor stacks */
    i64 *free_procs, *n_free;
    ready_item *heap;       /* static: per-type ready heaps */
    i64 *ptask, *pseq;      /* mqb: per-type pools of class heads */
    i64 *plen;              /* mqb: heads in each type's pool */
    i64 *cls;               /* mqb: each task's class */
    i64 *cls_last;          /* mqb: each class's newest ready member, -1 */
    i64 *next;              /* mqb: next ready member of the class, -1 */
    i64 *seq;               /* each task's sticky ready seq, -1 */
    i64 *ins;               /* mqb: each pooled task's insertion stamp */
    i64 *take;              /* mqb: take-all scratch */
    i64 *n_pending;         /* ready tasks per type */
    double *l, *extra, *parr, *s, *key_a, *key_b;
    event_item *events;
    i64 n_events, ready_seq, n_ins, event_seq, n_ready;
    i64 *trace_task, *trace_proc;
    double *trace_start, *trace_end;
    unsigned char *trace_killed;
    /* the fault seam (fault runs only) */
    timeline tl;
    i64 base;               /* heap key of timeline entry 0 */
    double *remaining;      /* each task's work left to dispatch */
    i64 *run_seq, *run_task;/* per processor (proc_off + proc): the
                             * running dispatch, task -1 when idle */
    double *run_start;
    i64 *up;                /* up processors per type */
    i64 checkpoint, kill_budget, kills;
    double wasted;
} run_state;

static uint64_t mix_word(uint64_t h, const void *word) {
    uint64_t x;
    memcpy(&x, word, sizeof x);
    h = (h ^ x) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
}

/* Whether tasks u and v have bit-identical type, work and row. */
static int same_class(const run_state *st, i64 u, i64 v) {
    return st->types[u] == st->types[v] &&
           memcmp(&st->work[u], &st->work[v], sizeof(double)) == 0 &&
           memcmp(st->d + u * st->K, st->d + v * st->K,
                  (size_t)st->K * sizeof(double)) == 0;
}

/* Number the classes of bit-identical (type, work, descendant row) in
 * order of first member with one open-addressing hash pass: sets
 * st->cls and adds each type's class count to type_off[type + 1].
 * Returns the class count, or -1 when out of memory. */
static i64 group_classes(run_state *st, i64 n) {
    size_t cap = 2;
    while (cap < 2 * (size_t)n) cap <<= 1;
    i64 *table = calloc(cap, sizeof(i64));  /* first member + 1; 0 empty */
    if (!table) return -1;
    i64 n_cls = 0;
    for (i64 v = 0; v < n; v++) {
        uint64_t h = (uint64_t)st->types[v];
        h = mix_word(h, &st->work[v]);
        for (i64 j = 0; j < st->K; j++) h = mix_word(h, &st->d[v * st->K + j]);
        /* splitmix64's finalizer: every word reaches the low bits. */
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
        size_t i = (size_t)(h ^ (h >> 31)) & (cap - 1);
        while (table[i] != 0 && !same_class(st, table[i] - 1, v)) {
            i = (i + 1) & (cap - 1);
        }
        if (table[i] == 0) {
            table[i] = v + 1;
            st->cls[v] = n_cls++;
            st->type_off[st->types[v] + 1]++;
        } else {
            st->cls[v] = st->cls[table[i] - 1];
        }
    }
    free(table);
    return n_cls;
}

static void pool_add(run_state *st, i64 a, i64 task) {
    i64 slot = st->type_off[a] + st->plen[a]++;
    st->ptask[slot] = task;
    st->pseq[slot] = st->seq[task];
}

static void task_ready(run_state *st, i64 task) {
    i64 a = st->types[task];
    if (st->seq[task] < 0) st->seq[task] = st->ready_seq++;
    st->n_ready++;
    if (st->kind == ROW_STATIC) {
        ready_item item = {st->keys[task], st->seq[task], task};
        ready_item_push(st->heap + st->type_off[a], &st->n_pending[a], item);
    } else {
        i64 c = st->cls[task], last = st->cls_last[c];
        st->ins[task] = st->n_ins++;
        st->next[task] = -1;
        st->cls_last[c] = task;
        if (last < 0) {
            pool_add(st, a, task);  /* the class's new head */
        } else {
            st->next[last] = task;
        }
        st->n_pending[a]++;
        st->l[a] += st->work[task];
    }
}

static void dispatch(run_state *st, i64 task, double now) {
    i64 a = st->types[task];
    i64 proc = st->free_procs[st->proc_off[a] + --st->n_free[a]];
    double finish = now + st->work[task];
    event_item ev = {finish, st->event_seq, task, proc};
    event_item_push(st->events, &st->n_events, ev);
    if (st->run_task != NULL) {
        i64 pid = st->proc_off[a] + proc;
        st->run_seq[pid] = st->event_seq;
        st->run_task[pid] = task;
        st->run_start[pid] = now;
    }
    if (st->running != NULL) st->running[a]++;
    if (st->trace_task != NULL) {
        st->trace_task[st->event_seq] = task;
        st->trace_proc[st->event_seq] = proc;
        st->trace_start[st->event_seq] = now;
        st->trace_end[st->event_seq] = finish;
        if (st->trace_killed != NULL) st->trace_killed[st->event_seq] = 0;
    }
    st->event_seq++;
    st->n_ready--;
}

/* QueueScheduler.assign (KGreedyConsolidate.assign with caps): each
 * type's heap, in type order. */
static void static_round(run_state *st, double now) {
    for (i64 a = 0; a < st->K; a++) {
        i64 slots = st->n_free[a];
        if (st->caps != NULL && st->caps[a] - st->running[a] < slots) {
            slots = st->caps[a] - st->running[a];
        }
        ready_item *heap = st->heap + st->type_off[a];
        for (i64 taken = 0; taken < slots && st->n_pending[a] > 0; taken++) {
            dispatch(st, ready_item_pop(heap, &st->n_pending[a]).task, now);
        }
    }
}

/* MQB.assign: one pick per type per pass until saturated.  Returns
 * the number of kernel picks. */
static i64 mqb_round(run_state *st, double now) {
    i64 K = st->K, picks = 0;
    i64 *take = st->take;
    for (i64 j = 0; j < K; j++) st->extra[j] = 0.0;
    int progress = 1;
    while (progress) {
        progress = 0;
        for (i64 a = 0; a < K; a++) {
            i64 m = st->n_pending[a];
            if (st->n_free[a] <= 0 || m == 0) continue;
            i64 base = st->type_off[a];
            i64 *ptask = st->ptask + base, *pseq = st->pseq + base;
            if (m <= st->n_free[a]) {
                /* Take all: every member of every class, in insertion
                 * order (MQB._pos's). */
                i64 got = 0;
                for (i64 i = 0; i < st->plen[a]; i++) {
                    st->cls_last[st->cls[ptask[i]]] = -1;
                    for (i64 t = ptask[i]; t >= 0; t = st->next[t]) {
                        i64 j = got++ - 1;
                        while (j >= 0 && st->ins[take[j]] > st->ins[t]) {
                            take[j + 1] = take[j];
                            j--;
                        }
                        take[j + 1] = t;
                    }
                }
                for (i64 i = 0; i < m; i++) {
                    i64 v = take[i];
                    st->l[a] -= st->work[v];
                    if (st->carry) {
                        const double *drow = st->d + v * K;
                        for (i64 j = 0; j < K; j++) st->extra[j] += drow[j];
                    }
                }
                st->plen[a] = 0;
                st->n_pending[a] = 0;
                for (i64 i = 0; i < m; i++) dispatch(st, take[i], now);
            } else {
                i64 v = pool_pick_commit(
                    st->d, st->work, st->weights, ptask, pseq, &st->plen[a],
                    st->l, st->extra, st->parr, K, a, st->mode, st->carry,
                    st->s, st->key_a, st->key_b);
                if (st->next[v] < 0) {
                    st->cls_last[st->cls[v]] = -1;
                } else {
                    pool_add(st, a, st->next[v]);
                }
                st->n_pending[a]--;
                picks++;
                dispatch(st, v, now);
            }
            progress = 1;
        }
    }
    return picks;
}

/* Whether a timeline is one FaultTimeline.events() could return for
 * these counts: processors in range, finite times >= 0, entries in
 * (time, FAIL after REPAIR, alpha, proc) order, and each processor
 * alternating FAIL (while up) and REPAIR (while down).  Returns 1 when
 * it is, 0 when not, -1 when out of memory. */
static int timeline_ok(const timeline *tl, i64 K, const i64 *counts,
                       const i64 *proc_off) {
    if (tl->n < 0) return 0;
    if (tl->n == 0) return 1;
    if (!tl->time || !tl->fail || !tl->alpha || !tl->proc) return 0;
    for (i64 i = 0; i < tl->n; i++) {
        i64 a = tl->alpha[i], p = tl->proc[i];
        double t = tl->time[i];
        if (a < 0 || a >= K || p < 0 || p >= counts[a]) return 0;
        if (!(t >= 0.0) || isinf(t)) return 0;
        if (tl->fail[i] != 0 && tl->fail[i] != 1) return 0;
        if (i == 0) continue;
        double u = tl->time[i - 1];
        if (u != t) {
            if (u > t) return 0;
        } else if (tl->fail[i - 1] != tl->fail[i]) {
            if (tl->fail[i - 1] > tl->fail[i]) return 0;
        } else if (tl->alpha[i - 1] != a) {
            if (tl->alpha[i - 1] > a) return 0;
        } else if (tl->proc[i - 1] >= p) {
            return 0;
        }
    }
    unsigned char *down = calloc((size_t)proc_off[K] + 1, 1);
    if (!down) return -1;
    int ok = 1;
    for (i64 i = 0; i < tl->n && ok; i++) {
        i64 pid = proc_off[tl->alpha[i]] + tl->proc[i];
        if (down[pid] == tl->fail[i]) ok = 0;
        down[pid] = (unsigned char)tl->fail[i];
    }
    free(down);
    return ok;
}

/* list.remove: drop idle processor p from type a's free stack, keeping
 * the others' order. */
static void free_remove(run_state *st, i64 a, i64 p) {
    i64 *stack = st->free_procs + st->proc_off[a];
    i64 n = st->n_free[a], i = 0;
    while (i < n && stack[i] != p) i++;
    if (i == n) return;
    memmove(stack + i, stack + i + 1, (size_t)(n - i - 1) * sizeof(i64));
    st->n_free[a] = n - 1;
}

/* _FaultSeam.popped for timeline entry i at `now`.  Returns RUN_OK, or
 * RUN_LIVELOCK when a kill passes the budget (*victim: its task). */
static i64 fault_entry(run_state *st, i64 i, double now, i64 *victim) {
    i64 a = st->tl.alpha[i], p = st->tl.proc[i];
    if (!st->tl.fail[i]) {
        st->up[a]++;
        st->free_procs[st->proc_off[a] + st->n_free[a]++] = p;
        return RUN_OK;
    }
    st->up[a]--;
    i64 pid = st->proc_off[a] + p, v = st->run_task[pid];
    if (v < 0) {
        free_remove(st, a, p);
        return RUN_OK;
    }
    i64 s = st->run_seq[pid];
    double start = st->run_start[pid];
    st->run_seq[pid] = -1;
    st->run_task[pid] = -1;
    if (++st->kills > st->kill_budget) {
        *victim = v;
        return RUN_LIVELOCK;
    }
    if (st->trace_task != NULL) {
        st->trace_end[s] = now;
        st->trace_killed[s] = 1;
    }
    if (st->checkpoint) {
        st->remaining[v] = (start + st->remaining[v]) - now;
    } else {
        st->wasted += now - start;
    }
    if (st->running != NULL) st->running[a]--;
    task_ready(st, v);
    return RUN_OK;
}

/* Run one whole simulation.
 *
 * kind: ROW_STATIC (keys: n priority keys; caps: K concurrency caps or
 * NULL) or ROW_MQB (d: n x K descendant rows, mode, carry; weights: K
 * score weights or NULL).  types/work: per task; child_ptr (n+1) /
 * child_idx: the CSR child adjacency; counts: K processor counts.
 *
 * A fault run passes n_faults >= 0 timeline entries (fault_time,
 * fault_fail, fault_alpha, fault_proc), checkpoint (0 restart, 1
 * checkpoint), kill_budget >= 0, and up: K slots that end as the up
 * processors per type; a plain run passes n_faults = -1 and NULLs.
 *
 * timing: accumulate decision-round wall time.  trace_*: trace_cap
 * slots each (n plus the timeline's FAIL entries covers every
 * dispatch), written in dispatch order, or all NULL; trace_killed may
 * be NULL outside fault runs.
 *
 * out_f: [makespan, decision seconds, stall time, wasted work]; out_i:
 * [decisions, dispatches, heap peak, kernel picks, stall ready, stall
 * unfinished, kills, livelock victim].  Returns RUN_OK, RUN_STALLED
 * (out_f[2], out_i[4..5] describe the stall), RUN_LIVELOCK (out_i[6]
 * kills passed the budget on task out_i[7]), RUN_BAD_INPUT or
 * RUN_NO_MEMORY.  The counters are written on every return but the
 * last two. */
EXPORT i64 repro_list_schedule(i64 kind, i64 n, i64 K,
                               const i64 *types, const double *work,
                               const i64 *child_ptr, const i64 *child_idx,
                               const i64 *counts, const double *keys,
                               const double *d, i64 mode, i64 carry,
                               const double *weights, const i64 *caps,
                               i64 n_faults, const double *fault_time,
                               const i64 *fault_fail, const i64 *fault_alpha,
                               const i64 *fault_proc, i64 checkpoint,
                               i64 kill_budget, i64 *up,
                               i64 timing, i64 trace_cap,
                               i64 *trace_task, i64 *trace_proc,
                               double *trace_start, double *trace_end,
                               unsigned char *trace_killed,
                               double *out_f, i64 *out_i) {
    run_state st = {0};
    i64 *indeg = NULL;
    i64 rc = RUN_OK;
    int faults = n_faults >= 0;

    if (n < 0 || K <= 0) return RUN_BAD_INPUT;
    if (kind == ROW_STATIC) {
        if (n > 0 && keys == NULL) return RUN_BAD_INPUT;
    } else if (kind == ROW_MQB) {
        if (n > 0 && d == NULL) return RUN_BAD_INPUT;
        if (mode < MODE_LEX || mode > MODE_SUM) return RUN_BAD_INPUT;
        if (mode == MODE_SUM && K >= 8) return RUN_BAD_INPUT;
    } else {
        return RUN_BAD_INPUT;
    }
    if (!rows_ok(kind, K, mode, weights, caps)) return RUN_BAD_INPUT;
    if (child_ptr[0] != 0) return RUN_BAD_INPUT;
    for (i64 v = 0; v < n; v++) {
        if (types[v] < 0 || types[v] >= K) return RUN_BAD_INPUT;
        if (child_ptr[v + 1] < child_ptr[v]) return RUN_BAD_INPUT;
    }
    for (i64 e = 0; e < child_ptr[n]; e++) {
        if (child_idx[e] < 0 || child_idx[e] >= n) return RUN_BAD_INPUT;
    }
    for (i64 a = 0; a < K; a++) {
        if (counts[a] < 0) return RUN_BAD_INPUT;
    }
    if (faults) {
        if (up == NULL || kill_budget < 0) return RUN_BAD_INPUT;
        if (checkpoint != 0 && checkpoint != 1) return RUN_BAD_INPUT;
        if (trace_task != NULL && trace_killed == NULL) return RUN_BAD_INPUT;
    }
    if (trace_task != NULL && trace_cap < n) return RUN_BAD_INPUT;

    st.kind = kind;
    st.K = K;
    st.mode = mode;
    st.carry = carry;
    st.types = types;
    st.work = work;
    st.keys = keys;
    st.d = d;
    st.weights = weights;
    st.caps = caps;
    st.trace_task = trace_task;
    st.trace_proc = trace_proc;
    st.trace_start = trace_start;
    st.trace_end = trace_end;
    st.trace_killed = trace_killed;
    st.base = INT64_MAX;

    indeg = calloc((size_t)n + 1, sizeof(i64));
    st.seq = malloc(((size_t)n + 1) * sizeof(i64));
    st.type_off = calloc((size_t)K + 1, sizeof(i64));
    st.proc_off = calloc((size_t)K + 1, sizeof(i64));
    st.n_free = calloc((size_t)K, sizeof(i64));
    st.n_pending = calloc((size_t)K, sizeof(i64));
    if (!indeg || !st.seq || !st.type_off || !st.proc_off || !st.n_free ||
        !st.n_pending) {
        rc = RUN_NO_MEMORY;
        goto done;
    }
    i64 max_count = 0;
    for (i64 a = 0; a < K; a++) {
        st.proc_off[a + 1] = st.proc_off[a] + counts[a];
        if (counts[a] > max_count) max_count = counts[a];
    }
    i64 n_fail = 0;
    if (faults) {
        st.tl = (timeline){n_faults, fault_time, fault_fail, fault_alpha,
                           fault_proc};
        int ok = timeline_ok(&st.tl, K, counts, st.proc_off);
        if (ok <= 0) {
            rc = ok < 0 ? RUN_NO_MEMORY : RUN_BAD_INPUT;
            goto done;
        }
        for (i64 i = 0; i < n_faults; i++) n_fail += fault_fail[i];
        if (trace_task != NULL && trace_cap < n + n_fail) {
            rc = RUN_BAD_INPUT;
            goto done;
        }
        st.checkpoint = checkpoint;
        st.kill_budget = kill_budget < MAX_KILL_BUDGET ? kill_budget
                                                        : MAX_KILL_BUDGET;
        st.base = n + st.kill_budget;
        st.up = up;
        st.remaining = malloc(((size_t)n + 1) * sizeof(double));
        st.run_seq = malloc(((size_t)st.proc_off[K] + 1) * sizeof(i64));
        st.run_task = malloc(((size_t)st.proc_off[K] + 1) * sizeof(i64));
        st.run_start = malloc(((size_t)st.proc_off[K] + 1) * sizeof(double));
        if (!st.remaining || !st.run_seq || !st.run_task || !st.run_start) {
            rc = RUN_NO_MEMORY;
            goto done;
        }
        memcpy(st.remaining, work, (size_t)n * sizeof(double));
        st.work = st.remaining;
        for (i64 pid = 0; pid < st.proc_off[K]; pid++) {
            st.run_seq[pid] = -1;
            st.run_task[pid] = -1;
            st.run_start[pid] = 0.0;
        }
        for (i64 a = 0; a < K; a++) up[a] = counts[a];
    }
    /* Every dispatch pushes a completion; a run dispatches each task
     * once plus once per kill, and kills at most once per FAIL. */
    st.events = malloc(((size_t)n + (size_t)n_fail +
                        (size_t)(faults ? n_faults : 0) + 1) *
                       sizeof(event_item));
    st.free_procs = malloc(((size_t)st.proc_off[K] + 1) * sizeof(i64));
    if (!st.events || !st.free_procs) {
        rc = RUN_NO_MEMORY;
        goto done;
    }
    if (caps != NULL) {
        st.running = calloc((size_t)K, sizeof(i64));
        if (!st.running) {
            rc = RUN_NO_MEMORY;
            goto done;
        }
    }
    for (i64 a = 0; a < K; a++) {
        i64 *stack = st.free_procs + st.proc_off[a];
        for (i64 i = 0; i < counts[a]; i++) stack[i] = counts[a] - 1 - i;
        st.n_free[a] = counts[a];
    }
    for (i64 v = 0; v < n; v++) st.seq[v] = -1;
    if (kind == ROW_STATIC) {
        for (i64 v = 0; v < n; v++) st.type_off[types[v] + 1]++;
        st.heap = malloc(((size_t)n + 1) * sizeof(ready_item));
        if (!st.heap) {
            rc = RUN_NO_MEMORY;
            goto done;
        }
    } else {
        st.cls = malloc(((size_t)n + 1) * sizeof(i64));
        st.next = malloc(((size_t)n + 1) * sizeof(i64));
        st.ins = malloc(((size_t)n + 1) * sizeof(i64));
        /* A take-all round dispatches at most one type's processors. */
        st.take = malloc(((size_t)max_count + 1) * sizeof(i64));
        st.plen = calloc((size_t)K, sizeof(i64));
        st.l = calloc((size_t)K, sizeof(double));
        st.extra = calloc((size_t)K, sizeof(double));
        st.parr = malloc((size_t)K * sizeof(double));
        st.s = malloc((size_t)K * sizeof(double));
        st.key_a = malloc((size_t)K * sizeof(double));
        st.key_b = malloc((size_t)K * sizeof(double));
        if (!st.cls || !st.next || !st.ins || !st.take || !st.plen ||
            !st.l || !st.extra || !st.parr || !st.s || !st.key_a ||
            !st.key_b) {
            rc = RUN_NO_MEMORY;
            goto done;
        }
        for (i64 a = 0; a < K; a++) st.parr[a] = (double)counts[a];
        i64 n_cls;
        if (st.tl.n > 0) {
            /* One task per class: the seam breaks the classes' orders. */
            for (i64 v = 0; v < n; v++) {
                st.cls[v] = v;
                st.type_off[types[v] + 1]++;
            }
            n_cls = n;
        } else {
            n_cls = group_classes(&st, n);
        }
        if (n_cls < 0) {
            rc = RUN_NO_MEMORY;
            goto done;
        }
        st.cls_last = malloc(((size_t)n_cls + 1) * sizeof(i64));
        st.ptask = malloc(((size_t)n_cls + 1) * sizeof(i64));
        st.pseq = malloc(((size_t)n_cls + 1) * sizeof(i64));
        if (!st.cls_last || !st.ptask || !st.pseq) {
            rc = RUN_NO_MEMORY;
            goto done;
        }
        for (i64 c = 0; c < n_cls; c++) st.cls_last[c] = -1;
    }
    for (i64 a = 0; a < K; a++) st.type_off[a + 1] += st.type_off[a];

    for (i64 e = 0; e < child_ptr[n]; e++) indeg[child_idx[e]]++;

    i64 completed = 0, decisions = 0, heap_peak = 0, picks = 0, victim = -1;
    double now = 0.0, makespan = 0.0, decision_s = 0.0;
    for (i64 v = 0; v < n; v++) {
        if (indeg[v] == 0) task_ready(&st, v);
    }
    for (i64 i = 0; i < st.tl.n; i++) {
        /* t = 0 entries take their (idle) processors down before the
         * first round; the rest wait in the heap. */
        if (st.tl.time[i] == 0.0) {
            rc = fault_entry(&st, i, 0.0, &victim);
            if (rc != RUN_OK) goto out;
        } else {
            event_item ev = {st.tl.time[i], st.base + i, st.tl.alpha[i],
                             st.tl.proc[i]};
            st.events[st.n_events++] = ev;
        }
    }
    event_item_heapify(st.events, st.n_events);
    while (completed < n) {
        /* ---- decision round at time `now` ---- */
        int round = 0;
        if (st.n_ready > 0) {
            for (i64 a = 0; a < K; a++) {
                if (st.n_free[a] > 0 && st.n_pending[a] > 0) {
                    round = 1;
                    break;
                }
            }
        }
        if (round) {
            decisions++;
            double t0 = timing ? clock_seconds() : 0.0;
            if (kind == ROW_STATIC) {
                static_round(&st, now);
            } else {
                picks += mqb_round(&st, now);
            }
            if (timing) decision_s += clock_seconds() - t0;
            if (st.n_events > heap_peak) heap_peak = st.n_events;
        }
        if (st.n_events == 0) {
            out_f[2] = now;
            out_i[4] = st.n_ready;
            out_i[5] = n - completed;
            rc = RUN_STALLED;
            goto out;
        }
        /* ---- advance to the next event instant ---- */
        now = st.events[0].finish;
        while (st.n_events > 0 && st.events[0].finish == now) {
            event_item ev = event_item_pop(st.events, &st.n_events);
            if (ev.seq >= st.base) {
                rc = fault_entry(&st, ev.seq - st.base, now, &victim);
                if (rc != RUN_OK) goto out;
                continue;
            }
            i64 a = types[ev.task];
            if (st.run_task != NULL) {
                i64 pid = st.proc_off[a] + ev.proc;
                if (st.run_seq[pid] != ev.seq) continue;  /* killed */
                st.run_seq[pid] = -1;
                st.run_task[pid] = -1;
            }
            if (st.running != NULL) st.running[a]--;
            completed++;
            st.free_procs[st.proc_off[a] + st.n_free[a]++] = ev.proc;
            makespan = now;
            for (i64 e = child_ptr[ev.task]; e < child_ptr[ev.task + 1]; e++) {
                i64 c = child_idx[e];
                if (--indeg[c] == 0) task_ready(&st, c);
            }
        }
    }

out:
    out_f[0] = makespan;
    out_f[1] = decision_s;
    out_f[3] = st.wasted;
    out_i[0] = decisions;
    out_i[1] = st.event_seq;
    out_i[2] = heap_peak;
    out_i[3] = picks;
    out_i[6] = st.kills;
    out_i[7] = victim;

done:
    free(indeg);
    free(st.seq);
    free(st.type_off);
    free(st.proc_off);
    free(st.n_free);
    free(st.n_pending);
    free(st.events);
    free(st.free_procs);
    free(st.running);
    free(st.remaining);
    free(st.run_seq);
    free(st.run_task);
    free(st.run_start);
    free(st.heap);
    free(st.ptask);
    free(st.pseq);
    free(st.plen);
    free(st.cls);
    free(st.cls_last);
    free(st.next);
    free(st.ins);
    free(st.take);
    free(st.l);
    free(st.extra);
    free(st.parr);
    free(st.s);
    free(st.key_a);
    free(st.key_b);
    return rc;
}

/* ------------------------------------------------------------------
 * Whole-run preemptive scheduling (repro.sim.preemptive's C loop)
 * ------------------------------------------------------------------
 *
 * One complete simulate_preemptive run for a scheduler whose protocol
 * is QueueScheduler's ("static") or MQB's ("mqb"), statement for
 * statement:
 *
 *   - each quantum checks the budget, then that some type has a queued
 *     task, then runs one decision round over every type's P_alpha
 *     processors; the chosen tasks, in chosen order, take processor ids
 *     counted per type from 0, run min(quantum, remaining), finish when
 *     their remaining work falls to 1e-12 or below and are otherwise
 *     re-announced with their remaining work; then now += quantum, and
 *     the finished tasks' children, in chosen order and then CSR order,
 *     become ready;
 *   - a task keeps the ready seq of its first announcement (the sticky
 *     rank of QueueScheduler.task_ready and MQB.task_ready);
 *   - static heaps hold (key, seq, task), sifted as heapq sifts;
 *   - MQB pools hold one entry per task, scored by pool_pick_commit
 *     against each task's remaining work.  There are no class pools:
 *     remaining work changes a task's row.  A take-all step runs in
 *     pool insertion order (MQB._pos's dict order), which a
 *     re-announcement moves to the end while the task's seq stays, and
 *     l and extra change in MQB's order;
 *   - the energy rows as in repro_list_schedule: EMQB's weights in the
 *     picks, and KGreedyConsolidate's caps, which every round meets
 *     with nothing running (each round's tasks are re-announced or
 *     finished before the next), so a type takes min(P_alpha, cap).
 *
 * Buffers are allocated per call; nothing is process wide. */

static int csr_ok(i64 n, const i64 *ptr, const i64 *idx);

/* Per-call state of one preemptive run. */
typedef struct {
    i64 kind, K, mode, carry;
    const i64 *types;
    const double *keys, *d, *weights;
    const i64 *caps;
    double *remaining;      /* per task, what is left to run */
    i64 *type_off;          /* K+1 offsets of per-type regions, by tasks */
    ready_item *heap;       /* static: per-type ready heaps */
    i64 *ptask, *pseq;      /* mqb: per-type pools, one entry per task */
    i64 *ins;               /* mqb: each pooled task's insertion stamp */
    i64 *first_seq;         /* each task's sticky ready seq, -1 */
    i64 *n_pending;         /* queued tasks per type */
    i64 ready_seq, n_ins;
    double *l, *extra, *parr, *s, *key_a, *key_b;
} preempt_state;

/* QueueScheduler.task_ready / MQB.task_ready with the task's remaining
 * work. */
static void preempt_ready(preempt_state *st, i64 task) {
    i64 a = st->types[task];
    i64 seq = st->first_seq[task];
    if (seq < 0) seq = st->first_seq[task] = st->ready_seq++;
    if (st->kind == ROW_STATIC) {
        ready_item item = {st->keys[task], seq, task};
        ready_item_push(st->heap + st->type_off[a], &st->n_pending[a], item);
    } else {
        i64 slot = st->type_off[a] + st->n_pending[a]++;
        st->ptask[slot] = task;
        st->pseq[slot] = seq;
        st->ins[task] = st->n_ins++;
        st->l[a] += st->remaining[task];
    }
}

/* Scheduler.assign over QueueScheduler.select: each type's heap, in
 * type order, up to its processor count (and cap).  Returns the number
 * chosen. */
static i64 preempt_static_round(preempt_state *st, const i64 *counts,
                                i64 *chosen) {
    i64 nc = 0;
    for (i64 a = 0; a < st->K; a++) {
        i64 slots = counts[a];
        if (st->caps != NULL && st->caps[a] < slots) slots = st->caps[a];
        ready_item *heap = st->heap + st->type_off[a];
        for (i64 taken = 0; taken < slots && st->n_pending[a] > 0; taken++) {
            chosen[nc++] = ready_item_pop(heap, &st->n_pending[a]).task;
        }
    }
    return nc;
}

/* MQB.assign with every processor free.  free: K scratch slots.
 * Returns the number chosen; adds the kernel picks to *picks. */
static i64 preempt_mqb_round(preempt_state *st, const i64 *counts,
                             i64 *free, i64 *chosen, i64 *picks) {
    i64 K = st->K, nc = 0;
    for (i64 j = 0; j < K; j++) {
        st->extra[j] = 0.0;
        free[j] = counts[j];
    }
    int progress = 1;
    while (progress) {
        progress = 0;
        for (i64 a = 0; a < K; a++) {
            i64 m = st->n_pending[a];
            if (free[a] <= 0 || m == 0) continue;
            i64 *ptask = st->ptask + st->type_off[a];
            if (m <= free[a]) {
                /* Take all, in insertion order. */
                i64 *take = chosen + nc;
                for (i64 i = 0; i < m; i++) {
                    i64 t = ptask[i], j = i - 1;
                    while (j >= 0 && st->ins[take[j]] > st->ins[t]) {
                        take[j + 1] = take[j];
                        j--;
                    }
                    take[j + 1] = t;
                }
                for (i64 i = 0; i < m; i++) {
                    i64 v = take[i];
                    st->l[a] -= st->remaining[v];
                    if (st->carry) {
                        const double *drow = st->d + v * K;
                        for (i64 j = 0; j < K; j++) st->extra[j] += drow[j];
                    }
                }
                st->n_pending[a] = 0;
                nc += m;
                free[a] -= m;
            } else {
                chosen[nc++] = pool_pick_commit(
                    st->d, st->remaining, st->weights, ptask,
                    st->pseq + st->type_off[a], &st->n_pending[a], st->l,
                    st->extra, st->parr, K, a, st->mode, st->carry, st->s,
                    st->key_a, st->key_b);
                free[a] -= 1;
                *picks += 1;
            }
            progress = 1;
        }
    }
    return nc;
}

/* Run one whole preemptive simulation.
 *
 * kind, n, K, types, work, child_ptr, child_idx, counts, keys, d, mode,
 * carry, weights, caps and timing: as repro_list_schedule.  quantum:
 * the positive, finite quantum; budget: quanta before the run counts
 * as overrun.  trace_*: trace_cap slots each, written in dispatch
 * order, or all NULL.
 *
 * out_f: [makespan, decision seconds, time of failure]; out_i:
 * [decisions, segments dispatched, kernel picks, unfinished tasks].
 * Returns RUN_OK, RUN_BUDGET (the budget ran out), RUN_STALLED (no
 * type had a queued task), RUN_IDLE (a round chose nothing),
 * RUN_TRACE_FULL (more than trace_cap segments), RUN_BAD_INPUT or
 * RUN_NO_MEMORY. */
EXPORT i64 repro_preemptive_schedule(i64 kind, i64 n, i64 K,
                                     const i64 *types, const double *work,
                                     const i64 *child_ptr,
                                     const i64 *child_idx, const i64 *counts,
                                     const double *keys, const double *d,
                                     i64 mode, i64 carry,
                                     const double *weights, const i64 *caps,
                                     double quantum, i64 budget, i64 timing,
                                     i64 trace_cap,
                                     i64 *trace_task, i64 *trace_proc,
                                     double *trace_start, double *trace_end,
                                     double *out_f, i64 *out_i) {
    preempt_state st = {0};
    i64 *indeg = NULL, *chosen = NULL, *finished = NULL, *procs = NULL;
    i64 rc = RUN_OK;

    if (n < 0 || K <= 0 || !(quantum > 0.0) || isinf(quantum)) return RUN_BAD_INPUT;
    if (trace_task != NULL && trace_cap < 0) return RUN_BAD_INPUT;
    if (kind == ROW_STATIC) {
        if (n > 0 && keys == NULL) return RUN_BAD_INPUT;
    } else if (kind == ROW_MQB) {
        if (n > 0 && d == NULL) return RUN_BAD_INPUT;
        if (mode < MODE_LEX || mode > MODE_SUM) return RUN_BAD_INPUT;
        if (mode == MODE_SUM && K >= 8) return RUN_BAD_INPUT;
    } else {
        return RUN_BAD_INPUT;
    }
    if (!rows_ok(kind, K, mode, weights, caps)) return RUN_BAD_INPUT;
    if (!csr_ok(n, child_ptr, child_idx)) return RUN_BAD_INPUT;
    for (i64 v = 0; v < n; v++) {
        if (types[v] < 0 || types[v] >= K) return RUN_BAD_INPUT;
    }
    for (i64 a = 0; a < K; a++) {
        if (counts[a] < 0) return RUN_BAD_INPUT;
    }

    st.kind = kind;
    st.K = K;
    st.mode = mode;
    st.carry = carry;
    st.types = types;
    st.keys = keys;
    st.d = d;
    st.weights = weights;
    st.caps = caps;

    indeg = calloc((size_t)n + 1, sizeof(i64));
    chosen = malloc(((size_t)n + 1) * sizeof(i64));
    finished = malloc(((size_t)n + 1) * sizeof(i64));
    procs = calloc((size_t)K, sizeof(i64));
    st.remaining = malloc(((size_t)n + 1) * sizeof(double));
    st.first_seq = malloc(((size_t)n + 1) * sizeof(i64));
    st.type_off = calloc((size_t)K + 1, sizeof(i64));
    st.n_pending = calloc((size_t)K, sizeof(i64));
    if (!indeg || !chosen || !finished || !procs || !st.remaining ||
        !st.first_seq || !st.type_off || !st.n_pending) {
        rc = RUN_NO_MEMORY;
        goto done;
    }
    if (kind == ROW_STATIC) {
        st.heap = malloc(((size_t)n + 1) * sizeof(ready_item));
        if (!st.heap) {
            rc = RUN_NO_MEMORY;
            goto done;
        }
    } else {
        st.ptask = malloc(((size_t)n + 1) * sizeof(i64));
        st.pseq = malloc(((size_t)n + 1) * sizeof(i64));
        st.ins = malloc(((size_t)n + 1) * sizeof(i64));
        st.l = calloc((size_t)K, sizeof(double));
        st.extra = calloc((size_t)K, sizeof(double));
        st.parr = malloc((size_t)K * sizeof(double));
        st.s = malloc((size_t)K * sizeof(double));
        st.key_a = malloc((size_t)K * sizeof(double));
        st.key_b = malloc((size_t)K * sizeof(double));
        if (!st.ptask || !st.pseq || !st.ins || !st.l || !st.extra ||
            !st.parr || !st.s || !st.key_a || !st.key_b) {
            rc = RUN_NO_MEMORY;
            goto done;
        }
        for (i64 a = 0; a < K; a++) st.parr[a] = (double)counts[a];
    }
    for (i64 v = 0; v < n; v++) {
        st.type_off[types[v] + 1]++;
        st.remaining[v] = work[v];
        st.first_seq[v] = -1;
    }
    for (i64 a = 0; a < K; a++) st.type_off[a + 1] += st.type_off[a];
    for (i64 e = 0; e < child_ptr[n]; e++) indeg[child_idx[e]]++;

    i64 completed = 0, decisions = 0, picks = 0, segments = 0;
    double now = 0.0, makespan = 0.0, decision_s = 0.0;
    for (i64 v = 0; v < n; v++) {
        if (indeg[v] == 0) preempt_ready(&st, v);
    }
    while (completed < n) {
        if (budget <= 0) {
            rc = RUN_BUDGET;
            break;
        }
        budget--;
        int queued = 0;
        for (i64 a = 0; a < K && !queued; a++) queued = st.n_pending[a] > 0;
        if (!queued) {
            rc = RUN_STALLED;
            break;
        }
        decisions++;
        double t0 = timing ? clock_seconds() : 0.0;
        /* procs doubles as MQB's free counts until the round is over. */
        i64 nc = kind == ROW_STATIC
                     ? preempt_static_round(&st, counts, chosen)
                     : preempt_mqb_round(&st, counts, procs, chosen, &picks);
        if (timing) decision_s += clock_seconds() - t0;
        if (nc == 0) {
            rc = RUN_IDLE;
            break;
        }
        for (i64 a = 0; a < K; a++) procs[a] = 0;
        i64 n_done = 0;
        for (i64 i = 0; i < nc; i++) {
            i64 task = chosen[i];
            double left = st.remaining[task];
            double run = left < quantum ? left : quantum;
            if (trace_task != NULL) {
                if (segments >= trace_cap) {
                    rc = RUN_TRACE_FULL;
                    goto done;
                }
                trace_task[segments] = task;
                trace_proc[segments] = procs[types[task]];
                trace_start[segments] = now;
                trace_end[segments] = now + run;
            }
            procs[types[task]]++;
            segments++;
            st.remaining[task] -= run;
            if (st.remaining[task] <= 1e-12) {
                finished[n_done++] = task;
                if (now + run > makespan) makespan = now + run;
            } else {
                preempt_ready(&st, task);
            }
        }
        now += quantum;
        for (i64 i = 0; i < n_done; i++) {
            i64 task = finished[i];
            completed++;
            for (i64 e = child_ptr[task]; e < child_ptr[task + 1]; e++) {
                i64 c = child_idx[e];
                if (--indeg[c] == 0) preempt_ready(&st, c);
            }
        }
    }
    out_f[0] = makespan;
    out_f[1] = decision_s;
    out_f[2] = now;
    out_i[0] = decisions;
    out_i[1] = segments;
    out_i[2] = picks;
    out_i[3] = n - completed;

done:
    free(indeg);
    free(chosen);
    free(finished);
    free(procs);
    free(st.remaining);
    free(st.first_seq);
    free(st.type_off);
    free(st.n_pending);
    free(st.heap);
    free(st.ptask);
    free(st.pseq);
    free(st.ins);
    free(st.l);
    free(st.extra);
    free(st.parr);
    free(st.s);
    free(st.key_a);
    free(st.key_b);
    return rc;
}

/* ------------------------------------------------------------------
 * Offline passes (KDag's peel, the bottom/top-level and
 * different-child-distance sweeps, ShiftBT's EDD subproblem)
 * ------------------------------------------------------------------
 *
 * Each entry point returns the bytes its numpy formulation returns:
 *
 *   - repro_topo_levels: KDag's level-order peel.  A task's peel round
 *     is 1 + the largest round of its parents (its longest edge-count
 *     path from a source), which any Kahn order computes; a counting
 *     sort by round, stable over ascending ids, then lists each level
 *     in ascending id order, as the peel's np.unique does.
 *   - the sweeps visit tasks in reverse topological (bottom, distance)
 *     or topological (top) order instead of level by level.  Each value
 *     is a max or min over NaN-free terms with no signed zero (sums of
 *     finite positive works, 1.0 + hop counts, inf), so the extreme
 *     does not depend on the order the terms are visited in, and each
 *     term is the one IEEE add numpy performs.
 *   - repro_edd_schedule: it admits the same sets of tasks as Python's
 *     loop and pops the least of a strict total order on NaN-free keys,
 *     Python's (due, release, task, work) tuple, so it pops heapq's
 *     sequence (the function's comment has the argument); start,
 *     completion and lateness are the same three IEEE operations.
 *
 * Buffers are allocated per call; nothing is process wide. */

#define PASS_BAD_INPUT -1
#define PASS_NO_MEMORY -2
#define PASS_NAN_KEY -3

/* A well-formed CSR adjacency over n nodes whose idx holds ptr[n]
 * entries (the binding checks that length). */
static int csr_ok(i64 n, const i64 *ptr, const i64 *idx) {
    if (ptr[0] != 0) return 0;
    for (i64 v = 0; v < n; v++) {
        if (ptr[v + 1] < ptr[v]) return 0;
    }
    for (i64 e = 0; e < ptr[n]; e++) {
        if (idx[e] < 0 || idx[e] >= n) return 0;
    }
    return 1;
}

static int order_ok(i64 n, const i64 *order) {
    for (i64 i = 0; i < n; i++) {
        if (order[i] < 0 || order[i] >= n) return 0;
    }
    return 1;
}

/* KDag._topological_order: order (levels ascending, ids ascending
 * within a level) and depth, n slots each.  Returns the number of
 * tasks peeled (n unless the edges hold a cycle; order and depth are
 * then unspecified), PASS_BAD_INPUT or PASS_NO_MEMORY. */
EXPORT i64 repro_topo_levels(i64 n, const i64 *child_ptr,
                             const i64 *child_idx, i64 *order, i64 *depth) {
    if (n < 0 || !csr_ok(n, child_ptr, child_idx)) return PASS_BAD_INPUT;
    i64 *indeg = calloc((size_t)n + 1, sizeof(i64));
    if (!indeg) return PASS_NO_MEMORY;
    for (i64 e = 0; e < child_ptr[n]; e++) indeg[child_idx[e]]++;
    i64 tail = 0;
    for (i64 v = 0; v < n; v++) {
        depth[v] = 0;
        if (indeg[v] == 0) order[tail++] = v;
    }
    for (i64 head = 0; head < tail; head++) {
        i64 u = order[head], du = depth[u] + 1;
        for (i64 e = child_ptr[u]; e < child_ptr[u + 1]; e++) {
            i64 c = child_idx[e];
            if (depth[c] < du) depth[c] = du;
            if (--indeg[c] == 0) order[tail++] = c;
        }
    }
    if (tail == n) {
        /* Every indeg is 0 again: reuse it as the level offsets. */
        for (i64 v = 0; v < n; v++) indeg[depth[v] + 1]++;
        for (i64 d = 0; d < n; d++) indeg[d + 1] += indeg[d];
        for (i64 v = 0; v < n; v++) order[indeg[depth[v]]++] = v;
    }
    free(indeg);
    return tail;
}

/* properties._bottom_levels: out[v] = work[v] + max over children of
 * out[c], work[v] for sinks.  order: a topological order. */
EXPORT i64 repro_bottom_levels(i64 n, const double *work,
                               const i64 *child_ptr, const i64 *child_idx,
                               const i64 *order, double *out) {
    if (n < 0 || !csr_ok(n, child_ptr, child_idx) || !order_ok(n, order))
        return PASS_BAD_INPUT;
    for (i64 v = 0; v < n; v++) out[v] = work[v];
    for (i64 i = n - 1; i >= 0; i--) {
        i64 v = order[i], b = child_ptr[v], e = child_ptr[v + 1];
        if (b == e) continue;
        double m = out[child_idx[b]];
        for (i64 k = b + 1; k < e; k++) {
            double x = out[child_idx[k]];
            if (x > m) m = x;
        }
        out[v] = work[v] + m;
    }
    return 0;
}

/* shiftbt.top_levels: out[v] = max over parents p of out[p] + work[p],
 * 0 for sources.  order: a topological order. */
EXPORT i64 repro_top_levels(i64 n, const double *work,
                            const i64 *parent_ptr, const i64 *parent_idx,
                            const i64 *order, double *out) {
    if (n < 0 || !csr_ok(n, parent_ptr, parent_idx) || !order_ok(n, order))
        return PASS_BAD_INPUT;
    for (i64 v = 0; v < n; v++) out[v] = 0.0;
    for (i64 i = 0; i < n; i++) {
        i64 v = order[i], b = parent_ptr[v], e = parent_ptr[v + 1];
        if (b == e) continue;
        i64 p = parent_idx[b];
        double m = out[p] + work[p];
        for (i64 k = b + 1; k < e; k++) {
            p = parent_idx[k];
            double x = out[p] + work[p];
            if (x > m) m = x;
        }
        out[v] = m;
    }
    return 0;
}

/* descendants.different_child_distance: out[v] = min over children c
 * of (1.0 if types differ else 1.0 + out[c]), inf for sinks.  order: a
 * topological order. */
EXPORT i64 repro_different_child_distance(i64 n, const i64 *types,
                                          const i64 *child_ptr,
                                          const i64 *child_idx,
                                          const i64 *order, double *out) {
    if (n < 0 || !csr_ok(n, child_ptr, child_idx) || !order_ok(n, order))
        return PASS_BAD_INPUT;
    for (i64 v = 0; v < n; v++) out[v] = INFINITY;
    for (i64 i = n - 1; i >= 0; i--) {
        i64 v = order[i], b = child_ptr[v], e = child_ptr[v + 1];
        if (b == e) continue;
        double m = INFINITY;
        for (i64 k = b; k < e; k++) {
            i64 c = child_idx[k];
            double x = types[c] != types[v] ? 1.0 : 1.0 + out[c];
            if (x < m) m = x;
        }
        out[v] = m;
    }
    return 0;
}

/* Order-preserving unsigned key of a non-NaN double: -0.0 and 0.0,
 * which compare equal, map to one key. */
static uint64_t order_key(double x) {
    uint64_t u;
    x += 0.0;
    memcpy(&u, &x, sizeof u);
    return (u >> 63) ? ~u : u | 0x8000000000000000ULL;
}

/* Stable LSD radix sort of idx[0..m), a permutation of 0..m-1, by
 * key[idx[i]]: one byte per pass, skipping the bytes every key shares.
 * tmp: m slots.  Returns whichever of the two buffers holds the
 * result. */
static i64 *radix_sort(i64 *idx, i64 *tmp, i64 m, const uint64_t *key) {
    uint64_t varies = 0;
    for (i64 i = 0; i < m; i++) varies |= key[i] ^ key[0];
    for (int shift = 0; shift < 64; shift += 8) {
        if (((varies >> shift) & 255) == 0) continue;
        i64 count[256] = {0};
        for (i64 i = 0; i < m; i++) count[(key[i] >> shift) & 255]++;
        i64 sum = 0;
        for (int v = 0; v < 256; v++) {
            i64 here = count[v];
            count[v] = sum;
            sum += here;
        }
        for (i64 i = 0; i < m; i++) {
            tmp[count[(key[idx[i]] >> shift) & 255]++] = idx[i];
        }
        i64 *swap = idx;
        idx = tmp;
        tmp = swap;
    }
    return idx;
}

typedef double machine_item;

static int machine_lt(const machine_item *a, const machine_item *b) {
    return *a < *b;
}

DEFINE_HEAP(machine_item, machine_lt)

/* shiftbt.edd_max_lateness_schedule for the m tasks tasks[0..m) (ids
 * into release/due/work, n slots each) on n_machines machines: writes
 * the dispatch sequence to seq_out (m slots) and the maximum lateness
 * to out_lateness[0].  Returns 0, PASS_BAD_INPUT, PASS_NO_MEMORY or
 * PASS_NAN_KEY (a NaN key, which the caller leaves to heapq).
 *
 * Python's loop admits every task released by the machine-free
 * instant, so what it has admitted is always the set {release <= t}:
 * equal releases enter together, and admitting in release order alone
 * gives the same sets as its (release, due, task) order.  Its released
 * heap of (due, release, task, work) tuples pops the minimum of a
 * strict total order, which here is the lowest set bit of a bitset
 * over the tasks' ranks in (due, release, task) order (one summary bit
 * per non-empty word).  A machine heap of min(n_machines, m) slots pops
 * what heapq's n_machines slots pop: each of the m pops still finds a
 * slot at 0.0 or below while one is left. */
EXPORT i64 repro_edd_schedule(i64 m, const i64 *tasks, i64 n,
                              const double *release, const double *due,
                              const double *work, i64 n_machines,
                              i64 *seq_out, double *out_lateness) {
    if (m < 1 || n < 0 || n_machines < 1) return PASS_BAD_INPUT;
    for (i64 i = 0; i < m; i++) {
        if (tasks[i] < 0 || tasks[i] >= n) return PASS_BAD_INPUT;
    }
    for (i64 i = 0; i < m; i++) {
        i64 t = tasks[i];
        if (isnan(release[t]) || isnan(due[t]) || isnan(work[t]))
            return PASS_NAN_KEY;
    }
    i64 n_mach = n_machines < m ? n_machines : m;
    i64 n_words = (m + 63) / 64, n_summary = (n_words + 63) / 64;
    uint64_t *keys = malloc(3 * (size_t)m * sizeof(uint64_t));
    i64 *perm = malloc(5 * (size_t)m * sizeof(i64));
    uint64_t *bits = calloc((size_t)(n_words + n_summary), sizeof(uint64_t));
    machine_item *machines = malloc((size_t)n_mach * sizeof(machine_item));
    if (!keys || !perm || !bits || !machines) {
        free(keys);
        free(perm);
        free(bits);
        free(machines);
        return PASS_NO_MEMORY;
    }
    uint64_t *k_task = keys, *k_rel = keys + m, *k_due = keys + 2 * m;
    i64 *buf_a = perm, *buf_b = perm + m, *buf_c = perm + 2 * m;
    i64 *buf_d = perm + 3 * m, *rank = perm + 4 * m;
    for (i64 i = 0; i < m; i++) {
        i64 t = tasks[i];
        k_task[i] = (uint64_t)t;
        k_rel[i] = order_key(release[t]);
        k_due[i] = order_key(due[t]);
        buf_a[i] = i;
        buf_c[i] = i;
    }
    /* by_rank: the tasks in (due, release, task) order, one stable pass
     * per key, least significant first. */
    i64 *by_rank = radix_sort(buf_a, buf_b, m, k_task);
    by_rank = radix_sort(by_rank, by_rank == buf_a ? buf_b : buf_a, m, k_rel);
    by_rank = radix_sort(by_rank, by_rank == buf_a ? buf_b : buf_a, m, k_due);
    for (i64 r = 0; r < m; r++) rank[by_rank[r]] = r;
    const i64 *admit = radix_sort(buf_c, buf_d, m, k_rel);
    uint64_t *summary = bits + n_words;
    for (i64 k = 0; k < n_mach; k++) machines[k] = 0.0;

    i64 n_mach_live = n_mach, pool = 0, i = 0, lowest = 0;
    double max_lateness = -INFINITY;
    for (i64 done = 0; done < m; done++) {
        double t_free = machine_item_pop(machines, &n_mach_live);
        /* Admit everything released by the machine-free instant; if
         * the pool is empty, fast-forward to the next release. */
        if (pool == 0 && i < m && release[tasks[admit[i]]] > t_free)
            t_free = release[tasks[admit[i]]];
        while (i < m && release[tasks[admit[i]]] <= t_free) {
            i64 r = rank[admit[i++]], w = r >> 6;
            bits[w] |= 1ULL << (r & 63);
            summary[w >> 6] |= 1ULL << (w & 63);
            if ((w >> 6) < lowest) lowest = w >> 6;
            pool++;
        }
        while (summary[lowest] == 0) lowest++;
        i64 w = (lowest << 6) + __builtin_ctzll(summary[lowest]);
        i64 r = (w << 6) + __builtin_ctzll(bits[w]);
        bits[w] &= bits[w] - 1;
        if (bits[w] == 0) summary[lowest] &= summary[lowest] - 1;
        pool--;

        i64 t = tasks[by_rank[r]];
        double start = t_free > release[t] ? t_free : release[t];
        double completion = start + work[t];
        double lateness = completion - due[t];
        if (lateness > max_lateness) max_lateness = lateness;
        seq_out[done] = t;
        machine_item_push(machines, &n_mach_live, completion);
    }
    out_lateness[0] = max_lateness;
    free(keys);
    free(perm);
    free(bits);
    free(machines);
    return 0;
}

/* ------------------------------------------------------------------
 * The add sweeps (MQB's typed, MaxDP's untyped and MQB+1Step's
 * one-step descendant values)
 * ------------------------------------------------------------------
 *
 * numpy sums each parent's children with np.add.reduceat, whose
 * segment [s, e) is a[s] + pairwise(a[s+1..e)) per column: the first
 * term is copied into the output and the add loop's reduce branch adds
 * numpy's pairwise sum of the rest.  The passes below perform those
 * IEEE operations in that order.  The order belongs to numpy, not to
 * this file, so repro.native checks it against np.add.reduceat once per
 * process before it lets the descendant functions call in here. */

/* numpy's pairwise summation (DOUBLE_pairwise_sum) of the n values
 * c[idx[i] * K + j]: sequential from -0.0 below 8 terms, 8 strided
 * accumulators up to 128 terms, and above that a split at the largest
 * multiple of 8 not above n / 2. */
static double pairwise_sum(const double *c, const i64 *idx, i64 n, i64 K,
                           i64 j) {
    if (n < 8) {
        double res = -0.0;
        for (i64 i = 0; i < n; i++) res += c[idx[i] * K + j];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int a = 0; a < 8; a++) r[a] = c[idx[a] * K + j];
        i64 i = 8;
        for (; i < n - n % 8; i += 8) {
            for (int a = 0; a < 8; a++) r[a] += c[idx[i + a] * K + j];
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += c[idx[i] * K + j];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(c, idx, n2, K, j) +
           pairwise_sum(c, idx + n2, n - n2, K, j);
}

/* d(v) = sum over children u of c(u), with c(u) = (d(u) + w(u)) / pr(u)
 * per type column (c(u) = w(u) / pr(u) when one_step), where w(u) is
 * work[u] in column types[u] and 0.0 elsewhere, and pr(u) is u's
 * in-degree: descendants.descendant_values (K columns),
 * untyped_descendant_values (K = 1, types NULL: every task of type 0)
 * and one_step_descendant_values.  out: n x K, row-major.  order: a
 * topological order, visited in reverse so that every child's
 * contribution is final before its parents sum it; children are summed
 * in CSR order as reduceat sums the gathered segment.  Returns 0,
 * PASS_BAD_INPUT or PASS_NO_MEMORY. */
EXPORT i64 repro_descendant_values(i64 n, i64 K, const i64 *types,
                                   const double *work, const i64 *child_ptr,
                                   const i64 *child_idx, const i64 *order,
                                   i64 one_step, double *out) {
    if (n < 0 || K < 1 || !csr_ok(n, child_ptr, child_idx) ||
        !order_ok(n, order))
        return PASS_BAD_INPUT;
    if (n > 0 && (size_t)K > SIZE_MAX / sizeof(double) / (size_t)n)
        return PASS_NO_MEMORY;
    for (i64 v = 0; types && v < n; v++) {
        if (types[v] < 0 || types[v] >= K) return PASS_BAD_INPUT;
    }
    i64 *indeg = calloc((size_t)n + 1, sizeof(i64));
    double *contrib = calloc((size_t)n * (size_t)K + 1, sizeof(double));
    if (!indeg || !contrib) {
        free(indeg);
        free(contrib);
        return PASS_NO_MEMORY;
    }
    for (i64 e = 0; e < child_ptr[n]; e++) indeg[child_idx[e]]++;
    for (i64 i = 0; i < n * K; i++) out[i] = 0.0;
    for (i64 i = n - 1; i >= 0; i--) {
        i64 v = order[i], b = child_ptr[v], e = child_ptr[v + 1];
        double *d = out + v * K;
        if (b < e) {
            /* reduceat copies a one-term segment without adding. */
            const double *first = contrib + child_idx[b] * K;
            for (i64 j = 0; j < K; j++) {
                d[j] = e - b == 1 ? first[j]
                                  : first[j] + pairwise_sum(contrib,
                                                            child_idx + b + 1,
                                                            e - b - 1, K, j);
            }
        }
        if (indeg[v] == 0) continue;
        double pr = (double)indeg[v];
        i64 alpha = types ? types[v] : 0;
        for (i64 j = 0; j < K; j++) {
            double w = j == alpha ? work[v] : 0.0;
            contrib[v * K + j] = (one_step ? w : d[j] + w) / pr;
        }
    }
    free(indeg);
    free(contrib);
    return 0;
}

/* ------------------------------------------------------------------
 * The tree generator's expansion
 * ------------------------------------------------------------------ */

/* numpy's public bit generator interface (numpy/random/bitgen.h), as
 * BitGenerator.ctypes.bit_generator points to it. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

#define TREE_NEED_ROOM 1

/* tree.generate_tree's LIFO expansion: pop the newest node; unless it
 * sits at max_depth or m more nodes would pass max_nodes, it expands
 * when shallower than forced_depth or when the generator's next double
 * (Generator.random()'s one draw, next_double) is below p, and its m
 * children get the next ids, depth + 1, and go on the frontier in id
 * order.  parents[u - 1] is node u's parent.
 *
 * Resumable: state = {nodes so far, frontier length}, and depth,
 * parents and frontier hold cap slots.  Before a pop that might need
 * more than cap slots it returns TREE_NEED_ROOM, having drawn nothing
 * for that node, and the caller calls again with larger buffers (the
 * first cap entries copied).  Returns 0 once the frontier is empty,
 * TREE_NEED_ROOM or PASS_BAD_INPUT.  The caller holds the bit
 * generator's lock. */
EXPORT i64 repro_tree_expand(bitgen_t *bitgen, i64 m, double p,
                             i64 max_depth, i64 max_nodes, i64 forced_depth,
                             i64 cap, i64 *depth, i64 *parents,
                             i64 *frontier, i64 *state) {
    i64 n = state[0], top = state[1];
    if (!bitgen || m < 0 || cap < 1 || n < 1 || n > cap || top < 0 ||
        top > n)
        return PASS_BAD_INPUT;
    for (i64 i = 0; i < top; i++) {
        if (frontier[i] < 0 || frontier[i] >= n) return PASS_BAD_INPUT;
    }
    while (top > 0) {
        i64 node = frontier[top - 1], d = depth[node];
        if (d >= max_depth || max_nodes < n || m > max_nodes - n) {
            top--;
            continue;
        }
        if (m > cap - n) {
            state[0] = n;
            state[1] = top;
            return TREE_NEED_ROOM;
        }
        top--;
        if (d >= forced_depth && !(bitgen->next_double(bitgen->state) < p))
            continue;
        for (i64 c = 0; c < m; c++) {
            depth[n + c] = d + 1;
            parents[n + c - 1] = node;
            frontier[top++] = n + c;
        }
        n += m;
    }
    state[0] = n;
    state[1] = 0;
    return 0;
}

#ifndef REPRO_NO_PYTHON
/* Minimal CPython module shell: importing it only locates the shared
 * object (repro.native loads the symbols above through ctypes). */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

static struct PyModuleDef mqbkernel_module = {
    PyModuleDef_HEAD_INIT,
    "_mqbkernel",
    "Compiled MQB selection kernel; symbols are consumed via ctypes.",
    -1,
    NULL,
};

PyMODINIT_FUNC PyInit__mqbkernel(void) {
    return PyModule_Create(&mqbkernel_module);
}
#endif
