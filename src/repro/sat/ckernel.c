/* Array-based CDCL core, compiled at first use via the system C
 * compiler (see ckernel.py) and driven through ctypes.
 *
 * This is the proof-free fast path of the "kernel" SAT engine: the
 * Python KernelSolver delegates here whenever no resolution proof is
 * being logged.  The layout mirrors the Python array kernel — flat
 * uint32 clause arena ([header, lbd, lits...]), watcher lists with
 * blocker literals compacted in place, an indexed max-heap over EVSIDS
 * activities, phase saving, Knuth reluctant-doubling restarts, and
 * LBD-based learnt-clause reduction with arena compaction.
 *
 * Literal encoding is MiniSat-internal: var v -> 2v (positive),
 * 2v + 1 (negative); lit ^ 1 negates, lit >> 1 recovers the var.
 * The FFI boundary speaks DIMACS ints; conversion happens here.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define API __attribute__((visibility("default")))

/* Largest variable index: internal literals 2v + 1 must fit int32. */
#define CK_MAX_VAR ((1 << 30) - 1)

/* ------------------------------------------------------------------ */
/* growable int vector                                                 */
/* ------------------------------------------------------------------ */
typedef struct { int32_t *d; int32_t sz, cap; } vi;

static void vi_reserve(vi *v, int32_t need) {
    if (need <= v->cap) return;
    int32_t c = v->cap ? v->cap : 8;
    while (c < need) c *= 2;
    v->d = (int32_t *)realloc(v->d, (size_t)c * sizeof(int32_t));
    v->cap = c;
}

static inline void vi_push(vi *v, int32_t x) {
    if (v->sz == v->cap) vi_reserve(v, v->sz + 1);
    v->d[v->sz++] = x;
}

static void vi_free(vi *v) { free(v->d); v->d = 0; v->sz = v->cap = 0; }

typedef int (*stop_cb)(void);

/* ------------------------------------------------------------------ */
/* solver                                                              */
/* ------------------------------------------------------------------ */
enum { ST_CONFLICTS, ST_DECISIONS, ST_PROPAGATIONS, ST_RESTARTS,
       ST_LEARNED, ST_DELETED, ST_PURGED, ST_DB_LITERALS,
       ST_PEAK_DB_LITERALS, ST_MINIMIZED, ST_N };

#define F_LEARNT  1u
#define F_DELETED 2u
#define HDR(sz, learnt) ((((uint32_t)(sz)) << 3) | ((learnt) ? F_LEARNT : 0))
#define C_SIZE(h) ((int32_t)((h) >> 3))

typedef struct Solver {
    int ok;
    int32_t nvars, vcap;
    /* per-var (slot 0 unused) */
    int8_t  *assign;        /* value of the positive literal: 1/-1/0   */
    int32_t *level;
    int32_t *reason;        /* cref; 0 = none                          */
    double  *act;
    uint8_t *phase;         /* decision sign bit: 1 -> negative first  */
    uint8_t *seen;
    int32_t *hidx;          /* heap position, -1 = absent              */
    uint32_t *lvl_stamp;    /* LBD stamping, indexed by level          */
    /* per-lit */
    vi *watches;            /* interleaved (cref, blocker)             */
    /* clause arena */
    uint32_t *arena; int64_t asz, acap, wasted;
    vi clauses, learnts;    /* cref lists                              */
    /* trail */
    int32_t *trail; int32_t trail_sz, qhead;
    vi trail_lim;
    /* branching */
    int32_t *heap; int32_t heap_sz;
    double var_inc;
    /* results */
    int8_t *model; int32_t model_n;
    vi core;
    /* scratch */
    vi tmp, toclear;
    uint32_t stamp;
    /* stats + per-call budget */
    int64_t st[ST_N];
    int64_t max_conf, max_dec, max_prop, max_lits;
    double deadline;        /* < 0: none (CLOCK_MONOTONIC seconds)     */
    stop_cb stop;
    int64_t run_conf, run_dec, prop0;   /* prop0: propagations at call entry */
} Solver;

static inline int lit_val(const Solver *s, int32_t l) {
    int8_t a = s->assign[l >> 1];
    return (l & 1) ? -a : a;
}

/* ------------------------------------------------------------------ */
/* indexed max-heap on activity                                        */
/* ------------------------------------------------------------------ */
static void heap_up(Solver *s, int32_t i) {
    int32_t v = s->heap[i];
    double a = s->act[v];
    while (i > 0) {
        int32_t p = (i - 1) >> 1, pv = s->heap[p];
        if (s->act[pv] >= a) break;
        s->heap[i] = pv; s->hidx[pv] = i;
        i = p;
    }
    s->heap[i] = v; s->hidx[v] = i;
}

static void heap_down(Solver *s, int32_t i) {
    int32_t v = s->heap[i];
    double a = s->act[v];
    for (;;) {
        int32_t c = 2 * i + 1;
        if (c >= s->heap_sz) break;
        if (c + 1 < s->heap_sz
                && s->act[s->heap[c + 1]] > s->act[s->heap[c]]) c++;
        int32_t cv = s->heap[c];
        if (a >= s->act[cv]) break;
        s->heap[i] = cv; s->hidx[cv] = i;
        i = c;
    }
    s->heap[i] = v; s->hidx[v] = i;
}

static void heap_insert(Solver *s, int32_t v) {
    if (s->hidx[v] >= 0) return;
    s->heap[s->heap_sz] = v; s->hidx[v] = s->heap_sz;
    heap_up(s, s->heap_sz++);
}

static int32_t heap_pop(Solver *s) {
    int32_t v = s->heap[0];
    s->hidx[v] = -1;
    if (--s->heap_sz > 0) {
        s->heap[0] = s->heap[s->heap_sz];
        s->hidx[s->heap[0]] = 0;
        heap_down(s, 0);
    }
    return v;
}

/* ------------------------------------------------------------------ */
/* construction                                                        */
/* ------------------------------------------------------------------ */
API Solver *ck_new(void) {
    Solver *s = (Solver *)calloc(1, sizeof(Solver));
    s->ok = 1;
    s->var_inc = 1.0;
    s->deadline = -1.0;
    s->acap = 1024;
    s->arena = (uint32_t *)malloc((size_t)s->acap * sizeof(uint32_t));
    s->asz = 2;              /* pad so cref 0 means "no reason" */
    s->arena[0] = s->arena[1] = 0;
    return s;
}

API void ck_free(Solver *s) {
    if (!s) return;
    if (s->watches)          /* never allocated when no var was added */
        for (int32_t l = 0; l < 2 * (s->vcap + 1); l++)
            vi_free(&s->watches[l]);
    free(s->watches);
    free(s->assign); free(s->level); free(s->reason); free(s->act);
    free(s->phase); free(s->seen); free(s->hidx); free(s->lvl_stamp);
    free(s->arena); free(s->trail); free(s->heap); free(s->model);
    vi_free(&s->clauses); vi_free(&s->learnts); vi_free(&s->trail_lim);
    vi_free(&s->core); vi_free(&s->tmp); vi_free(&s->toclear);
    free(s);
}

/* Grow every per-variable array to hold variable n.  Returns 0, with
 * vcap unchanged, when an allocation fails: arrays already grown keep
 * their old contents, so the solver stays usable. */
#define GROW(field, type, count)                                         \
    do {                                                                 \
        type *p_ = (type *)realloc(s->field, (count) * sizeof(type));   \
        if (!p_) return 0;                                               \
        s->field = p_;                                                   \
    } while (0)

static int ensure_vcap(Solver *s, int32_t n) {
    if (n <= s->vcap) return 1;
    if (n > CK_MAX_VAR) return 0;
    int32_t c = s->vcap ? s->vcap : 64;
    while (c < n) c *= 2;
    size_t m = (size_t)c + 1;
    GROW(assign, int8_t, m);
    GROW(level, int32_t, m);
    GROW(reason, int32_t, m);
    GROW(act, double, m);
    GROW(phase, uint8_t, m);
    GROW(seen, uint8_t, m);
    GROW(hidx, int32_t, m);
    GROW(lvl_stamp, uint32_t, m);
    GROW(trail, int32_t, m);
    GROW(heap, int32_t, m);
    GROW(model, int8_t, m);
    vi *nw = (vi *)calloc(2 * m, sizeof(vi));
    if (!nw) return 0;
    if (s->watches) {
        memcpy(nw, s->watches, 2 * (size_t)(s->vcap + 1) * sizeof(vi));
        free(s->watches);
    }
    s->watches = nw;
    s->vcap = c;
    return 1;
}

/* Returns the new variable, or -1 when its allocation fails. */
API int32_t ck_new_var(Solver *s) {
    if (!ensure_vcap(s, s->nvars + 1)) return -1;
    int32_t v = ++s->nvars;
    s->assign[v] = 0; s->level[v] = 0; s->reason[v] = 0;
    s->act[v] = 0.0; s->phase[v] = 1; s->seen[v] = 0;
    s->hidx[v] = -1; s->lvl_stamp[v] = 0; s->model[v] = 0;
    heap_insert(s, v);
    return v;
}

/* Returns 0 when the variables cannot be allocated (nothing is added). */
API int ck_ensure_vars(Solver *s, int32_t up_to) {
    if (!ensure_vcap(s, up_to)) return 0;
    while (s->nvars < up_to) ck_new_var(s);
    return 1;
}

API int32_t ck_num_vars(Solver *s) { return s->nvars; }
API int ck_ok(Solver *s) { return s->ok; }
API int64_t ck_stat(Solver *s, int which) {
    return (which >= 0 && which < ST_N) ? s->st[which] : 0;
}

/* ------------------------------------------------------------------ */
/* trail                                                               */
/* ------------------------------------------------------------------ */
static inline void enqueue(Solver *s, int32_t l, int32_t from) {
    int32_t v = l >> 1;
    s->assign[v] = (l & 1) ? -1 : 1;
    s->level[v] = s->trail_lim.sz;
    s->reason[v] = from;
    s->trail[s->trail_sz++] = l;
}

static void cancel_until(Solver *s, int32_t lvl) {
    if (s->trail_lim.sz <= lvl) return;
    int32_t bound = s->trail_lim.d[lvl];
    for (int32_t i = s->trail_sz - 1; i >= bound; i--) {
        int32_t l = s->trail[i], v = l >> 1;
        s->assign[v] = 0;
        s->phase[v] = (uint8_t)(l & 1);
        s->reason[v] = 0;
        heap_insert(s, v);
    }
    s->trail_sz = bound;
    s->trail_lim.sz = lvl;
    if (s->qhead > bound) s->qhead = bound;
}

/* ------------------------------------------------------------------ */
/* clause database                                                     */
/* ------------------------------------------------------------------ */
static int32_t push_clause(Solver *s, const int32_t *lits, int32_t n,
                           int learnt, int32_t lbd) {
    if (s->asz + n + 2 > s->acap) {
        while (s->acap < s->asz + n + 2) s->acap *= 2;
        s->arena = (uint32_t *)realloc(s->arena,
                                       (size_t)s->acap * sizeof(uint32_t));
    }
    int32_t cref = (int32_t)s->asz;
    s->arena[s->asz++] = HDR(n, learnt);
    s->arena[s->asz++] = (uint32_t)lbd;
    for (int32_t i = 0; i < n; i++) s->arena[s->asz++] = (uint32_t)lits[i];
    return cref;
}

static void attach(Solver *s, int32_t cref) {
    uint32_t *lits = s->arena + cref + 2;
    vi *w0 = &s->watches[lits[0]];
    vi_push(w0, cref); vi_push(w0, (int32_t)lits[1]);
    vi *w1 = &s->watches[lits[1]];
    vi_push(w1, cref); vi_push(w1, (int32_t)lits[0]);
    s->st[ST_DB_LITERALS] += C_SIZE(s->arena[cref]);
    if (s->st[ST_DB_LITERALS] > s->st[ST_PEAK_DB_LITERALS])
        s->st[ST_PEAK_DB_LITERALS] = s->st[ST_DB_LITERALS];
}

static void watch_remove(Solver *s, int32_t lit, int32_t cref) {
    vi *w = &s->watches[lit];
    for (int32_t i = 0; i < w->sz; i += 2) {
        if (w->d[i] == cref) {
            w->d[i] = w->d[w->sz - 2];
            w->d[i + 1] = w->d[w->sz - 1];
            w->sz -= 2;
            return;
        }
    }
}

static void delete_clause(Solver *s, int32_t cref) {
    uint32_t *c = s->arena + cref;
    watch_remove(s, (int32_t)c[2], cref);
    watch_remove(s, (int32_t)c[3], cref);
    s->st[ST_DB_LITERALS] -= C_SIZE(c[0]);
    c[0] |= F_DELETED;
    s->wasted += C_SIZE(c[0]) + 2;
}

/* Compact the arena: copy live clauses, remap reasons, rebuild
 * watches.  A forwarding address is parked in the old lbd slot. */
static void gc_arena(Solver *s) {
    uint32_t *na = (uint32_t *)malloc((size_t)s->acap * sizeof(uint32_t));
    int64_t nsz = 2;
    na[0] = na[1] = 0;
    vi *lists[2] = { &s->clauses, &s->learnts };
    for (int t = 0; t < 2; t++) {
        vi *ls = lists[t];
        int32_t j = 0;
        for (int32_t i = 0; i < ls->sz; i++) {
            int32_t cref = ls->d[i];
            uint32_t h = s->arena[cref];
            if (h & F_DELETED) continue;
            int32_t sz = C_SIZE(h);
            memcpy(na + nsz, s->arena + cref,
                   (size_t)(sz + 2) * sizeof(uint32_t));
            s->arena[cref + 1] = (uint32_t)nsz;   /* forwarding addr */
            ls->d[j++] = (int32_t)nsz;
            nsz += sz + 2;
        }
        ls->sz = j;
    }
    for (int32_t i = 0; i < s->trail_sz; i++) {
        int32_t v = s->trail[i] >> 1;
        int32_t r = s->reason[v];
        if (r) s->reason[v] = (int32_t)s->arena[r + 1];
    }
    free(s->arena);
    s->arena = na;
    s->asz = nsz;
    s->wasted = 0;
    for (int32_t l = 0; l < 2 * (s->vcap + 1); l++) s->watches[l].sz = 0;
    int64_t saved = s->st[ST_DB_LITERALS];
    s->st[ST_DB_LITERALS] = 0;
    for (int t = 0; t < 2; t++) {
        vi *ls = lists[t];
        for (int32_t i = 0; i < ls->sz; i++) attach(s, ls->d[i]);
    }
    s->st[ST_DB_LITERALS] = saved;
}

static int lits_in_range(const int32_t *dlits, int32_t n) {
    for (int32_t i = 0; i < n; i++)
        if (dlits[i] > CK_MAX_VAR || dlits[i] < -CK_MAX_VAR) return 0;
    return 1;
}

/* Returns 1 (ok), 0 (now UNSAT), -1 (allocation failed) or -2 (a
 * literal is out of range; nothing is added). */
API int ck_add_clause(Solver *s, const int32_t *dlits, int32_t n) {
    if (!s->ok) return 0;
    if (!lits_in_range(dlits, n)) return -2;
    cancel_until(s, 0);
    s->tmp.sz = 0;
    vi_reserve(&s->tmp, n);
    for (int32_t i = 0; i < n; i++) {
        int32_t d = dlits[i];
        int32_t v = d < 0 ? -d : d;
        if (!ck_ensure_vars(s, v)) return -1;
        s->tmp.d[s->tmp.sz++] = 2 * v + (d < 0 ? 1 : 0);
    }
    /* sort ascending (insertion sort: clauses are short) */
    int32_t *a = s->tmp.d;
    for (int32_t i = 1; i < n; i++) {
        int32_t x = a[i], j = i - 1;
        while (j >= 0 && a[j] > x) { a[j + 1] = a[j]; j--; }
        a[j + 1] = x;
    }
    int32_t m = 0, prev = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t l = a[i];
        if (l == prev) continue;                  /* duplicate   */
        if (prev && l == (prev ^ 1)) return 1;    /* tautology   */
        prev = l;
        int val = lit_val(s, l);
        if (val > 0) return 1;                    /* satisfied   */
        if (val < 0) continue;                    /* false at 0  */
        a[m++] = l;
    }
    if (m == 0) { s->ok = 0; return 0; }
    if (m == 1) {
        enqueue(s, a[0], 0);
        int32_t confl;
        /* inline level-0 propagation via the main routine below */
        extern int32_t ck_propagate_(Solver *);
        confl = ck_propagate_(s);
        if (confl) { s->ok = 0; return 0; }
        return 1;
    }
    int32_t cref = push_clause(s, a, m, 0, 0);
    vi_push(&s->clauses, cref);
    attach(s, cref);
    return 1;
}

/* ------------------------------------------------------------------ */
/* propagation                                                         */
/* ------------------------------------------------------------------ */
API int32_t ck_propagate_(Solver *s) {
    int32_t confl = 0;
    int32_t start = s->qhead;
    while (s->qhead < s->trail_sz) {
        int32_t p = s->trail[s->qhead++];
        int32_t fl = p ^ 1;
        vi *ws = &s->watches[fl];
        int32_t *d = ws->d;
        int32_t i = 0, j = 0, n = ws->sz;
        while (i < n) {
            int32_t blk = d[i + 1];
            if (lit_val(s, blk) > 0) {
                d[j] = d[i]; d[j + 1] = blk; i += 2; j += 2;
                continue;
            }
            int32_t cref = d[i];
            i += 2;
            uint32_t *c = s->arena + cref;
            int32_t sz = C_SIZE(c[0]);
            uint32_t *lits = c + 2;
            int32_t first = (int32_t)lits[0];
            if (first == fl) {
                first = (int32_t)lits[1];
                lits[0] = (uint32_t)first;
                lits[1] = (uint32_t)fl;
            }
            int fv = lit_val(s, first);
            if (fv > 0) { d[j] = cref; d[j + 1] = first; j += 2; continue; }
            int32_t k;
            for (k = 2; k < sz; k++) {
                int32_t q = (int32_t)lits[k];
                if (lit_val(s, q) >= 0) {
                    lits[1] = (uint32_t)q;
                    lits[k] = (uint32_t)fl;
                    vi *wq = &s->watches[q];
                    vi_push(wq, cref); vi_push(wq, first);
                    break;
                }
            }
            if (k < sz) continue;                 /* watch moved */
            d[j] = cref; d[j + 1] = first; j += 2;
            if (fv < 0) {                         /* conflict    */
                confl = cref;
                while (i < n) {
                    d[j] = d[i]; d[j + 1] = d[i + 1];
                    i += 2; j += 2;
                }
                break;
            }
            enqueue(s, first, cref);
        }
        ws->sz = j;
        if (confl) break;
    }
    s->st[ST_PROPAGATIONS] += s->qhead - start;
    return confl;
}

/* ------------------------------------------------------------------ */
/* conflict analysis                                                   */
/* ------------------------------------------------------------------ */
static void rescale_activity(Solver *s) {
    for (int32_t v = 1; v <= s->nvars; v++) s->act[v] *= 1e-100;
    s->var_inc *= 1e-100;
}

static inline void var_bump(Solver *s, int32_t v) {
    if ((s->act[v] += s->var_inc) > 1e100) rescale_activity(s);
    if (s->hidx[v] >= 0) heap_up(s, s->hidx[v]);
}

static void minimize(Solver *s, vi *learnt) {
    for (int32_t i = 1; i < learnt->sz; i++)
        s->seen[learnt->d[i] >> 1] = 1;
    int32_t j = 1;
    for (int32_t i = 1; i < learnt->sz; i++) {
        int32_t l = learnt->d[i], v = l >> 1;
        int32_t r = s->reason[v];
        if (!r) { learnt->d[j++] = l; continue; }
        uint32_t *c = s->arena + r;
        int32_t sz = C_SIZE(c[0]);
        uint32_t *lits = c + 2;
        int redundant = 1;
        for (int32_t k = 0; k < sz; k++) {
            int32_t qv = (int32_t)lits[k] >> 1;
            if (qv == v) continue;
            if (!s->seen[qv] && s->level[qv] > 0) { redundant = 0; break; }
        }
        if (redundant) { s->st[ST_MINIMIZED]++; s->seen[v] = 0; }
        else learnt->d[j++] = l;
    }
    learnt->sz = j;
}

/* First-UIP analysis; fills s->tmp with the learnt clause
 * (asserting literal first) and returns the backtrack level. */
static int32_t analyze(Solver *s, int32_t confl, int32_t *out_lbd) {
    vi *learnt = &s->tmp;
    learnt->sz = 0;
    vi_push(learnt, 0);
    s->toclear.sz = 0;
    int32_t path = 0, p = -1, idx = s->trail_sz - 1;
    int32_t cur = s->trail_lim.sz;
    for (;;) {
        uint32_t *c = s->arena + confl;
        int32_t sz = C_SIZE(c[0]);
        uint32_t *lits = c + 2;
        for (int32_t k = 0; k < sz; k++) {
            int32_t q = (int32_t)lits[k];
            if (q == p) continue;
            int32_t v = q >> 1;
            if (s->seen[v] || s->level[v] == 0) continue;
            s->seen[v] = 1;
            vi_push(&s->toclear, v);
            var_bump(s, v);
            if (s->level[v] >= cur) path++;
            else vi_push(learnt, q);
        }
        while (!s->seen[s->trail[idx] >> 1]) idx--;
        p = s->trail[idx--];
        s->seen[p >> 1] = 0;
        if (--path == 0) break;
        confl = s->reason[p >> 1];
    }
    learnt->d[0] = p ^ 1;
    minimize(s, learnt);
    for (int32_t i = 0; i < s->toclear.sz; i++)
        s->seen[s->toclear.d[i]] = 0;

    s->stamp++;
    int32_t lbd = 0;
    for (int32_t i = 0; i < learnt->sz; i++) {
        int32_t lv = s->level[learnt->d[i] >> 1];
        if (s->lvl_stamp[lv] != s->stamp) {
            s->lvl_stamp[lv] = s->stamp;
            lbd++;
        }
    }
    *out_lbd = lbd;

    if (learnt->sz == 1) return 0;
    int32_t mi = 1;
    for (int32_t i = 2; i < learnt->sz; i++)
        if (s->level[learnt->d[i] >> 1] > s->level[learnt->d[mi] >> 1])
            mi = i;
    int32_t t = learnt->d[1];
    learnt->d[1] = learnt->d[mi];
    learnt->d[mi] = t;
    return s->level[learnt->d[1] >> 1];
}

/* Failed-assumption core (MiniSat analyzeFinal): internal lits. */
static void analyze_final(Solver *s, int32_t failed) {
    s->core.sz = 0;
    vi_push(&s->core, failed);
    s->seen[failed >> 1] = 1;
    for (int32_t i = s->trail_sz - 1; i >= 0; i--) {
        int32_t l = s->trail[i], v = l >> 1;
        if (!s->seen[v]) continue;
        int32_t r = s->reason[v];
        if (!r) {
            if (s->level[v] > 0) vi_push(&s->core, l);
        } else {
            uint32_t *c = s->arena + r;
            int32_t sz = C_SIZE(c[0]);
            uint32_t *lits = c + 2;
            for (int32_t k = 0; k < sz; k++) {
                int32_t qv = (int32_t)lits[k] >> 1;
                if (qv != v && s->level[qv] > 0) s->seen[qv] = 1;
            }
        }
        s->seen[v] = 0;
    }
    s->seen[failed >> 1] = 0;
}

/* ------------------------------------------------------------------ */
/* learnt-clause management                                            */
/* ------------------------------------------------------------------ */
static void learn(Solver *s, int32_t lbd) {
    vi *lr = &s->tmp;
    s->st[ST_LEARNED]++;
    if (lr->sz == 1) { enqueue(s, lr->d[0], 0); return; }
    int32_t cref = push_clause(s, lr->d, lr->sz, 1, lbd);
    vi_push(&s->learnts, cref);
    attach(s, cref);
    enqueue(s, lr->d[0], cref);
}

static int cmp_reduce(const void *pa, const void *pb) {
    /* higher LBD first; ties: older (smaller cref) first */
    int64_t a = *(const int64_t *)pa, b = *(const int64_t *)pb;
    int32_t la = (int32_t)(a >> 32), lb = (int32_t)(b >> 32);
    if (la != lb) return lb - la;
    return (int32_t)a < (int32_t)b ? -1 : 1;
}

static void reduce_db(Solver *s) {
    int32_t n = s->learnts.sz;
    if (n < 2) return;
    int64_t *order = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    for (int32_t i = 0; i < n; i++) {
        int32_t cref = s->learnts.d[i];
        order[i] = ((int64_t)(int32_t)s->arena[cref + 1] << 32)
                   | (uint32_t)cref;
    }
    qsort(order, (size_t)n, sizeof(int64_t), cmp_reduce);
    int32_t target = n / 2, kept = 0;
    for (int32_t i = 0; i < n; i++) {
        int32_t cref = (int32_t)(uint32_t)order[i];
        uint32_t *c = s->arena + cref;
        int32_t lbd = (int32_t)c[1];
        int32_t l0 = (int32_t)c[2];
        int locked = s->reason[l0 >> 1] == cref && lit_val(s, l0) > 0;
        if (i < target && lbd > 2 && !locked) {
            delete_clause(s, cref);
            s->st[ST_DELETED]++;
        } else {
            s->learnts.d[kept++] = cref;
        }
    }
    s->learnts.sz = kept;
    free(order);
    if (s->wasted * 2 > s->asz) gc_arena(s);
}

API int32_t ck_purge_satisfied(Solver *s) {
    cancel_until(s, 0);
    for (int32_t i = 0; i < s->trail_sz; i++)
        s->reason[s->trail[i] >> 1] = 0;
    int32_t purged = 0;
    vi *lists[2] = { &s->clauses, &s->learnts };
    for (int t = 0; t < 2; t++) {
        vi *ls = lists[t];
        for (int32_t i = 0; i < ls->sz; i++) {
            int32_t cref = ls->d[i];
            uint32_t *c = s->arena + cref;
            if (c[0] & F_DELETED) continue;
            int32_t sz = C_SIZE(c[0]);
            for (int32_t k = 0; k < sz; k++) {
                if (lit_val(s, (int32_t)c[2 + k]) > 0) {
                    delete_clause(s, cref);
                    purged++;
                    break;
                }
            }
        }
    }
    gc_arena(s);
    s->st[ST_PURGED] += purged;
    return purged;
}

/* ------------------------------------------------------------------ */
/* search                                                              */
/* ------------------------------------------------------------------ */
static int budget_exceeded(Solver *s) {
    if (s->run_conf >= s->max_conf) return 1;
    if (s->run_dec >= s->max_dec) return 1;
    if (s->st[ST_PROPAGATIONS] - s->prop0 >= s->max_prop) return 1;
    if (s->st[ST_DB_LITERALS] >= s->max_lits) return 1;
    if (s->deadline >= 0.0) {
        struct timespec ts;
        clock_gettime(CLOCK_MONOTONIC, &ts);
        if (ts.tv_sec + ts.tv_nsec * 1e-9 > s->deadline) return 1;
    }
    if (s->stop && (((s->run_conf + s->run_dec) & 63) == 0) && s->stop())
        return 1;
    return 0;
}

static int32_t pick_branch(Solver *s) {
    while (s->heap_sz) {
        int32_t v = heap_pop(s);
        if (s->assign[v] == 0) return v;
    }
    return 0;
}

API int ck_solve(Solver *s, const int32_t *dassumps, int32_t n_ass,
                 int64_t max_conf, int64_t max_dec, int64_t max_prop,
                 int64_t max_lits, double deadline, stop_cb stop) {
    if (!lits_in_range(dassumps, n_ass)) return -4;
    s->model_n = 0;
    s->core.sz = 0;
    s->prop0 = s->st[ST_PROPAGATIONS];
    cancel_until(s, 0);
    if (!s->ok) return 0;
    if (ck_propagate_(s)) { s->ok = 0; return 0; }

    s->max_conf = max_conf; s->max_dec = max_dec;
    s->max_prop = max_prop; s->max_lits = max_lits;
    s->deadline = deadline; s->stop = stop;
    s->run_conf = s->run_dec = 0;

    int32_t *ass = NULL;
    if (n_ass) {
        ass = (int32_t *)malloc((size_t)n_ass * sizeof(int32_t));
        for (int32_t i = 0; i < n_ass; i++) {
            int32_t d = dassumps[i];
            int32_t v = d < 0 ? -d : d;
            if (!ass || !ck_ensure_vars(s, v)) { free(ass); return -3; }
            ass[i] = 2 * v + (d < 0 ? 1 : 0);
        }
    }

    int result = -2;
    int64_t ru = 1, rv = 1, conflict_limit = 100, episode = 0;
    int64_t max_learnts = s->clauses.sz / 3;
    if (max_learnts < 1000) max_learnts = 1000;

    while (result == -2) {
        int32_t confl = ck_propagate_(s);
        if (confl) {
            episode++; s->run_conf++; s->st[ST_CONFLICTS]++;
            if (s->trail_lim.sz == 0) {
                s->ok = 0;
                result = 0;
                break;
            }
            int32_t lbd;
            int32_t bt = analyze(s, confl, &lbd);
            cancel_until(s, bt);
            learn(s, lbd);
            s->var_inc *= (1.0 / 0.95);
            if (budget_exceeded(s)) { result = -1; break; }
            continue;
        }
        if (episode >= conflict_limit) {
            s->st[ST_RESTARTS]++;
            cancel_until(s, 0);
            if ((ru & -ru) == rv) { ru++; rv = 1; } else rv <<= 1;
            conflict_limit = 100 * rv;
            episode = 0;
            if (s->learnts.sz > max_learnts)
                max_learnts = max_learnts * 13 / 10;
            continue;
        }
        if ((int64_t)s->learnts.sz - s->trail_sz > max_learnts)
            reduce_db(s);

        int32_t next = 0;
        while (s->trail_lim.sz < n_ass) {
            int32_t al = ass[s->trail_lim.sz];
            int av = lit_val(s, al);
            if (av > 0) {
                vi_push(&s->trail_lim, s->trail_sz);
            } else if (av < 0) {
                analyze_final(s, al);
                result = 0;
                break;
            } else {
                next = al;
                break;
            }
        }
        if (result != -2) break;
        if (!next) {
            int32_t v = pick_branch(s);
            if (!v) {
                if (s->nvars)
                    memcpy(s->model, s->assign, (size_t)s->nvars + 1);
                s->model_n = s->nvars;
                result = 1;
                break;
            }
            next = 2 * v + s->phase[v];
        }
        s->st[ST_DECISIONS]++; s->run_dec++;
        if (budget_exceeded(s)) {
            heap_insert(s, next >> 1);
            result = -1;
            break;
        }
        vi_push(&s->trail_lim, s->trail_sz);
        enqueue(s, next, 0);
    }

    free(ass);
    if (result == -1) cancel_until(s, 0);
    s->max_conf = s->max_dec = s->max_prop = s->max_lits = INT64_MAX;
    s->deadline = -1.0;
    s->stop = NULL;
    return result;
}

/* ------------------------------------------------------------------ */
/* results                                                             */
/* ------------------------------------------------------------------ */
API int ck_model_value(Solver *s, int32_t var) {
    return (var >= 1 && var <= s->model_n) ? s->model[var] : 0;
}

API int32_t ck_copy_model(Solver *s, int8_t *out, int32_t cap) {
    int32_t n = s->model_n < cap ? s->model_n : cap;
    if (n > 0) memcpy(out, s->model, (size_t)n + 1);
    return s->model_n;
}

API int32_t ck_core_size(Solver *s) { return s->core.sz; }

API void ck_copy_core(Solver *s, int32_t *out) {
    for (int32_t i = 0; i < s->core.sz; i++) {
        int32_t l = s->core.d[i];
        out[i] = (l & 1) ? -(l >> 1) : (l >> 1);
    }
}

API int ck_fixed_value(Solver *s, int32_t dlit) {
    int32_t v = dlit < 0 ? -dlit : dlit;
    if (v > s->nvars) return 0;
    if (s->assign[v] == 0 || s->level[v] != 0) return 0;
    int val = s->assign[v];
    return dlit < 0 ? -val : val;
}

API int ck_set_phase(Solver *s, int32_t var, int phase) {
    if (!ck_ensure_vars(s, var)) return 0;
    s->phase[var] = phase ? 0 : 1;
    return 1;
}

API int32_t ck_num_clauses(Solver *s) { return s->clauses.sz; }
API int32_t ck_num_learnts(Solver *s) { return s->learnts.sz; }
