/* Compiled hot-structure kernels.
 *
 * Bit-identical C implementations of the two repro.kernels.pylib entry
 * points, warm_span and replay_walk: first-match scans, first-minimum
 * victim tie-breaks, lazy LRU order-list materialization, float credit
 * additions. All tables stay ordinary Python containers the simulator
 * itself uses — lists of ints (or None for invalid ways), and the gshare
 * counter table's bytearray — so capture/restore of warm state and every
 * pure-Python consumer keep working unchanged; the speedup comes from
 * replacing interpreter dispatch on the innermost loops, not from a
 * parallel storage format.
 *
 * Built by `python -m repro.kernels.build` with the system C compiler;
 * no third-party packages.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* First index of `value` in a list of ints/None, or -1. */
static Py_ssize_t
list_find_ll(PyObject *list, long long value)
{
    Py_ssize_t n = PyList_GET_SIZE(list);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyList_GET_ITEM(list, i);
        if (PyLong_Check(item) && PyLong_AsLongLong(item) == value) {
            return i;
        }
    }
    return -1;
}

static Py_ssize_t
list_find_none(PyObject *list)
{
    Py_ssize_t n = PyList_GET_SIZE(list);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (PyList_GET_ITEM(list, i) == Py_None) {
            return i;
        }
    }
    return -1;
}

/* list[i] = value (a fresh int object; the old item is released). */
static int
list_set_ll(PyObject *list, Py_ssize_t i, long long value)
{
    PyObject *obj = PyLong_FromLongLong(value);
    if (obj == NULL) {
        return -1;
    }
    return PyList_SetItem(list, i, obj);
}

static int
seen_add_ll(PyObject *seen, long long value)
{
    PyObject *obj = PyLong_FromLongLong(value);
    if (obj == NULL) {
        return -1;
    }
    int rc = PySet_Add(seen, obj);
    Py_DECREF(obj);
    return rc;
}

/* orders[set_index], materializing list(range(ways)) in place of None
 * exactly like LruPolicy's lazy per-set recency lists. Borrowed ref. */
static PyObject *
ensure_order(PyObject *orders, Py_ssize_t set_index, Py_ssize_t ways)
{
    PyObject *order = PyList_GET_ITEM(orders, set_index);
    if (order != Py_None) {
        return order;
    }
    order = PyList_New(ways);
    if (order == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < ways; i++) {
        PyObject *v = PyLong_FromSsize_t(i);
        if (v == NULL) {
            Py_DECREF(order);
            return NULL;
        }
        PyList_SET_ITEM(order, i, v);
    }
    PyList_SetItem(orders, set_index, order); /* steals our reference */
    return order;
}

/* order.remove(way); order.append(way) — a pure rotation of the
 * permutation list, so no reference counts change. */
static int
order_touch(PyObject *order, long long way)
{
    Py_ssize_t n = PyList_GET_SIZE(order);
    PyObject **items = ((PyListObject *)order)->ob_item;
    Py_ssize_t pos = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (PyLong_AsLongLong(items[i]) == way) {
            pos = i;
            break;
        }
    }
    if (pos < 0) {
        PyErr_SetString(PyExc_ValueError, "way not in LRU order list");
        return -1;
    }
    PyObject *moved = items[pos];
    memmove(&items[pos], &items[pos + 1],
            (size_t)(n - 1 - pos) * sizeof(PyObject *));
    items[n - 1] = moved;
    return 0;
}

/* The shared lb/L1/L2 warm tables of one core, bound once per call so
 * the per-line helper below keeps a flat signature. */
typedef struct {
    PyObject *lb_lines;
    PyObject *lb_uses;
    Py_ssize_t lb_n;
    long long lb_clock;
    PyObject *l1_tags;
    PyObject *l1_order;
    Py_ssize_t l1_ways;
    long long l1_shift;
    long long l1_set_mask;
    PyObject *l1_seen;
    PyObject *l2_tags;
    PyObject *l2_order;
    Py_ssize_t l2_ways;
    long long l2_shift;
    long long l2_set_mask;
    PyObject *l2_seen;
} warm_tables;

/* One line through the line buffers, then L1I and L2 on misses —
 * the per-line body of pylib.warm_span, statement for
 * statement (first-match scans, first-minimum victims, lazy order
 * lists). Returns 0, or -1 with an exception set. */
static int
warm_one_line(warm_tables *t, long long line)
{
    t->lb_clock++;
    Py_ssize_t slot = list_find_ll(t->lb_lines, line);
    if (slot >= 0) {
        return list_set_ll(t->lb_uses, slot, t->lb_clock);
    }
    /* Buffer miss: first least-recently-used slot. */
    Py_ssize_t victim = 0;
    long long best = PyLong_AsLongLong(PyList_GET_ITEM(t->lb_uses, 0));
    for (Py_ssize_t i = 1; i < t->lb_n; i++) {
        long long use = PyLong_AsLongLong(PyList_GET_ITEM(t->lb_uses, i));
        if (use < best) {
            best = use;
            victim = i;
        }
    }
    t->lb_clock++;
    if (list_set_ll(t->lb_lines, victim, line) < 0 ||
        list_set_ll(t->lb_uses, victim, t->lb_clock) < 0) {
        return -1;
    }
    /* L1I access (LRU; the caller guards on the policy type). */
    Py_ssize_t set_index = (Py_ssize_t)((line >> t->l1_shift) & t->l1_set_mask);
    PyObject *row = PyList_GET_ITEM(t->l1_tags, set_index);
    Py_ssize_t way = list_find_ll(row, line);
    PyObject *order;
    if (way >= 0) {
        order = ensure_order(t->l1_order, set_index, t->l1_ways);
        if (order == NULL || order_touch(order, (long long)way) < 0) {
            return -1;
        }
        return 0;
    }
    way = list_find_none(row);
    if (way < 0) {
        order = ensure_order(t->l1_order, set_index, t->l1_ways);
        if (order == NULL) {
            return -1;
        }
        way = PyLong_AsSsize_t(PyList_GET_ITEM(order, 0));
    }
    if (list_set_ll(row, way, line) < 0) {
        return -1;
    }
    order = ensure_order(t->l1_order, set_index, t->l1_ways);
    if (order == NULL || order_touch(order, (long long)way) < 0) {
        return -1;
    }
    if (seen_add_ll(t->l1_seen, line) < 0) {
        return -1;
    }
    /* L1 miss: walk the line through the L2 (always LRU). */
    Py_ssize_t l2_set = (Py_ssize_t)((line >> t->l2_shift) & t->l2_set_mask);
    PyObject *l2_row = PyList_GET_ITEM(t->l2_tags, l2_set);
    Py_ssize_t l2_way = list_find_ll(l2_row, line);
    if (l2_way < 0) {
        l2_way = list_find_none(l2_row);
        if (l2_way < 0) {
            order = ensure_order(t->l2_order, l2_set, t->l2_ways);
            if (order == NULL) {
                return -1;
            }
            l2_way = PyLong_AsSsize_t(PyList_GET_ITEM(order, 0));
        }
        if (list_set_ll(l2_row, l2_way, line) < 0 ||
            seen_add_ll(t->l2_seen, line) < 0) {
            return -1;
        }
    }
    order = ensure_order(t->l2_order, l2_set, t->l2_ways);
    if (order == NULL || order_touch(order, (long long)l2_way) < 0) {
        return -1;
    }
    return 0;
}

/* One iTLB lookup during warming: clock bump, hit refresh, or
 * seen-set insert + first-minimum LRU eviction (dict insertion order,
 * exactly `min(t_map, key=t_map.__getitem__)`) + install. Returns 0,
 * or -1 with an exception set. */
static int
itlb_step(PyObject *t_map, PyObject *t_seen, long long *t_clock,
          long long page, Py_ssize_t t_capacity)
{
    (*t_clock)++;
    PyObject *key = PyLong_FromLongLong(page);
    if (key == NULL) {
        return -1;
    }
    int resident = PyDict_Contains(t_map, key);
    if (resident < 0) {
        Py_DECREF(key);
        return -1;
    }
    if (!resident) {
        if (PySet_Add(t_seen, key) < 0) {
            Py_DECREF(key);
            return -1;
        }
        if (PyDict_GET_SIZE(t_map) >= t_capacity) {
            /* First minimum over insertion order, like Python's min()
             * over dict keys. */
            PyObject *k, *v;
            Py_ssize_t pos = 0;
            PyObject *victim = NULL;
            long long best = 0;
            while (PyDict_Next(t_map, &pos, &k, &v)) {
                long long use = PyLong_AsLongLong(v);
                if (victim == NULL || use < best) {
                    best = use;
                    victim = k;
                }
            }
            Py_INCREF(victim);
            int rc = PyDict_DelItem(t_map, victim);
            Py_DECREF(victim);
            if (rc < 0) {
                Py_DECREF(key);
                return -1;
            }
        }
    }
    PyObject *clock_obj = PyLong_FromLongLong(*t_clock);
    if (clock_obj == NULL) {
        Py_DECREF(key);
        return -1;
    }
    int rc = PyDict_SetItem(t_map, key, clock_obj);
    Py_DECREF(key);
    Py_DECREF(clock_obj);
    return rc;
}

/* warm_span(line_bytes,
 *           starts, counts, kinds, keys, targets, takens,
 *           lb_lines, lb_uses, lb_clock,
 *           l1_tags, l1_order, l1_ways, l1_shift, l1_set_mask, l1_seen,
 *           l2_tags, l2_order, l2_ways, l2_shift, l2_set_mask, l2_seen,
 *           g_counters, g_history, g_mask, g_shift,
 *           lp_tags, lp_trips, lp_currents, lp_conf, lp_mask, lp_shift,
 *           b_tags, b_targets, b_mask, b_shift,
 *           t_map, t_seen, t_clock, t_shift, t_capacity)
 *   -> (lb_clock, g_history, t_clock)
 * Mirrors pylib.warm_span statement for statement: the whole encoded
 * span — iTLB + lb/L1/L2 per line, gshare/loop/BTB per block — in one
 * call. t_map may be None (no iTLB). g_counters is a bytearray of more
 * than g_mask entries, read and written as raw bytes. */
static PyObject *
kernels_warm_span(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 41) {
        PyErr_SetString(PyExc_TypeError, "warm_span expects 41 arguments");
        return NULL;
    }
    long long line_bytes = PyLong_AsLongLong(args[0]);
    PyObject *starts = args[1];
    PyObject *counts = args[2];
    PyObject *kinds = args[3];
    PyObject *keys = args[4];
    PyObject *targets = args[5];
    PyObject *takens = args[6];
    warm_tables t;
    t.lb_lines = args[7];
    t.lb_uses = args[8];
    t.lb_clock = PyLong_AsLongLong(args[9]);
    t.l1_tags = args[10];
    t.l1_order = args[11];
    t.l1_ways = PyLong_AsSsize_t(args[12]);
    t.l1_shift = PyLong_AsLongLong(args[13]);
    t.l1_set_mask = PyLong_AsLongLong(args[14]);
    t.l1_seen = args[15];
    t.l2_tags = args[16];
    t.l2_order = args[17];
    t.l2_ways = PyLong_AsSsize_t(args[18]);
    t.l2_shift = PyLong_AsLongLong(args[19]);
    t.l2_set_mask = PyLong_AsLongLong(args[20]);
    t.l2_seen = args[21];
    PyObject *g_counters = args[22];
    long long g_history = PyLong_AsLongLong(args[23]);
    long long g_mask = PyLong_AsLongLong(args[24]);
    long long g_shift = PyLong_AsLongLong(args[25]);
    PyObject *lp_tags = args[26];
    PyObject *lp_trips = args[27];
    PyObject *lp_currents = args[28];
    PyObject *lp_conf = args[29];
    long long lp_mask = PyLong_AsLongLong(args[30]);
    long long lp_shift = PyLong_AsLongLong(args[31]);
    PyObject *b_tags = args[32];
    PyObject *b_targets = args[33];
    long long b_mask = PyLong_AsLongLong(args[34]);
    long long b_shift = PyLong_AsLongLong(args[35]);
    PyObject *t_map = args[36];
    PyObject *t_seen = args[37];
    long long t_clock = PyLong_AsLongLong(args[38]);
    long long t_shift = PyLong_AsLongLong(args[39]);
    Py_ssize_t t_capacity = PyLong_AsSsize_t(args[40]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    int have_itlb = t_map != Py_None;
    if (!PyList_Check(starts) || !PyList_Check(counts) ||
        !PyList_Check(kinds) || !PyList_Check(keys) ||
        !PyList_Check(targets) || !PyList_Check(takens) ||
        !PyList_Check(t.lb_lines) || !PyList_Check(t.lb_uses) ||
        !PyList_Check(t.l1_tags) || !PyList_Check(t.l1_order) ||
        !PyList_Check(t.l2_tags) || !PyList_Check(t.l2_order) ||
        !PySet_Check(t.l1_seen) || !PySet_Check(t.l2_seen) ||
        !PyByteArray_Check(g_counters) || !PyList_Check(lp_tags) ||
        !PyList_Check(lp_trips) || !PyList_Check(lp_currents) ||
        !PyList_Check(lp_conf) || !PyList_Check(b_tags) ||
        !PyList_Check(b_targets) ||
        (have_itlb && (!PyDict_Check(t_map) || !PySet_Check(t_seen)))) {
        PyErr_SetString(PyExc_TypeError,
                        "warm_span table arguments must be "
                        "lists/sets/dicts (g_counters a bytearray)");
        return NULL;
    }
    if (g_mask < 0 || PyByteArray_GET_SIZE(g_counters) <= g_mask) {
        PyErr_SetString(PyExc_ValueError,
                        "warm_span g_counters must hold more than g_mask "
                        "entries");
        return NULL;
    }
    unsigned char *g_table =
        (unsigned char *)PyByteArray_AS_STRING(g_counters);
    Py_ssize_t blocks = PyList_GET_SIZE(starts);
    if (PyList_GET_SIZE(counts) != blocks ||
        PyList_GET_SIZE(kinds) != blocks ||
        PyList_GET_SIZE(keys) != blocks ||
        PyList_GET_SIZE(targets) != blocks ||
        PyList_GET_SIZE(takens) != blocks) {
        PyErr_SetString(PyExc_ValueError,
                        "warm_span span columns differ in length");
        return NULL;
    }
    t.lb_n = PyList_GET_SIZE(t.lb_lines);

    for (Py_ssize_t index = 0; index < blocks; index++) {
        long long line = PyLong_AsLongLong(PyList_GET_ITEM(starts, index));
        long long count = PyLong_AsLongLong(PyList_GET_ITEM(counts, index));
        for (long long i = 0; i < count; i++) {
            if (have_itlb &&
                itlb_step(t_map, t_seen, &t_clock, line >> t_shift,
                          t_capacity) < 0) {
                return NULL;
            }
            if (warm_one_line(&t, line) < 0) {
                return NULL;
            }
            line += line_bytes;
        }
        long long kind = PyLong_AsLongLong(PyList_GET_ITEM(kinds, index));
        if (kind == 1) {
            long long address =
                PyLong_AsLongLong(PyList_GET_ITEM(keys, index));
            long long taken =
                PyLong_AsLongLong(PyList_GET_ITEM(takens, index));
            Py_ssize_t gi =
                (Py_ssize_t)(((address >> g_shift) ^ g_history) & g_mask);
            unsigned char counter = g_table[gi];
            if (taken) {
                if (counter < 3) {
                    g_table[gi] = counter + 1;
                }
            } else if (counter > 0) {
                g_table[gi] = counter - 1;
            }
            g_history = ((g_history << 1) | (taken ? 1 : 0)) & g_mask;
            long long tag = address >> lp_shift;
            Py_ssize_t lp_index = (Py_ssize_t)(tag & lp_mask);
            long long cur_tag =
                PyLong_AsLongLong(PyList_GET_ITEM(lp_tags, lp_index));
            if (cur_tag != tag) {
                if (!taken &&
                    (list_set_ll(lp_tags, lp_index, tag) < 0 ||
                     list_set_ll(lp_trips, lp_index, 0) < 0 ||
                     list_set_ll(lp_currents, lp_index, 0) < 0 ||
                     list_set_ll(lp_conf, lp_index, 0) < 0)) {
                    return NULL;
                }
            } else if (taken) {
                long long current =
                    PyLong_AsLongLong(PyList_GET_ITEM(lp_currents, lp_index));
                if (list_set_ll(lp_currents, lp_index, current + 1) < 0) {
                    return NULL;
                }
            } else {
                long long observed = PyLong_AsLongLong(
                    PyList_GET_ITEM(lp_currents, lp_index)) + 1;
                long long trips =
                    PyLong_AsLongLong(PyList_GET_ITEM(lp_trips, lp_index));
                if (observed == trips) {
                    long long confidence =
                        PyLong_AsLongLong(PyList_GET_ITEM(lp_conf, lp_index));
                    if (confidence < 3 &&
                        list_set_ll(lp_conf, lp_index, confidence + 1) < 0) {
                        return NULL;
                    }
                } else if (list_set_ll(lp_trips, lp_index, observed) < 0 ||
                           list_set_ll(lp_conf, lp_index, 0) < 0) {
                    return NULL;
                }
                if (list_set_ll(lp_currents, lp_index, 0) < 0) {
                    return NULL;
                }
            }
        } else if (kind == 2) {
            long long address =
                PyLong_AsLongLong(PyList_GET_ITEM(keys, index));
            Py_ssize_t bi = (Py_ssize_t)((address >> b_shift) & b_mask);
            long long target =
                PyLong_AsLongLong(PyList_GET_ITEM(targets, index));
            if (list_set_ll(b_tags, bi, address) < 0 ||
                list_set_ll(b_targets, bi, target) < 0) {
                return NULL;
            }
        }
    }
    return Py_BuildValue("(LLL)", t.lb_clock, g_history, t_clock);
}

/* replay_walk(mode, credit, ipc, iq, count, space_limit)
 * Mirrors pylib.replay_walk: the CommitEngine's deterministic float
 * credit trajectory, one call per planning/settlement walk. Modes 0-2
 * return an int; mode 3 returns
 * (committed, base_cycles, last_commit, iq, credit, stalled). */
static PyObject *
kernels_replay_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(
            PyExc_TypeError,
            "replay_walk(mode, credit, ipc, iq, count, space_limit)");
        return NULL;
    }
    long long mode = PyLong_AsLongLong(args[0]);
    double credit = PyFloat_AsDouble(args[1]);
    double ipc = PyFloat_AsDouble(args[2]);
    long long iq = PyLong_AsLongLong(args[3]);
    long long count = PyLong_AsLongLong(args[4]);
    long long space_limit = PyLong_AsLongLong(args[5]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    if (mode == 0) { /* REPLAY_NEXT */
        for (long long ahead = 1; ahead <= count; ahead++) {
            credit += ipc;
            if (credit >= 1.0) {
                return PyLong_FromLongLong(ahead);
            }
        }
        return PyLong_FromLongLong(0);
    }
    if (mode == 1) { /* REPLAY_HORIZON */
        for (long long ahead = 1; ahead <= count; ahead++) {
            credit += ipc;
            long long commit = (long long)credit;
            if (commit > iq) {
                commit = iq;
            }
            if (commit) {
                iq -= commit;
                credit -= (double)commit;
                if (credit > ipc) {
                    credit = ipc;
                }
                if (iq <= space_limit || iq == 0) {
                    return PyLong_FromLongLong(ahead + 1);
                }
            }
        }
        return PyLong_FromLongLong(count);
    }
    if (mode == 2) { /* REPLAY_DRAIN */
        for (long long ahead = 1; ahead <= count; ahead++) {
            credit += ipc;
            long long commit = (long long)credit;
            if (commit > iq) {
                commit = iq;
            }
            if (commit) {
                iq -= commit;
                credit -= (double)commit;
                if (credit > ipc) {
                    credit = ipc;
                }
                if (iq == 0) {
                    return PyLong_FromLongLong(ahead);
                }
            }
        }
        return PyLong_FromLongLong(0);
    }
    /* REPLAY_STEPS */
    long long committed = 0;
    long long base_cycles = 0;
    long long last_commit = 0;
    int stalled = 0;
    for (long long offset = 1; offset <= count; offset++) {
        credit += ipc;
        long long commit = (long long)credit;
        if (commit > iq) {
            commit = iq;
        }
        if (commit > 0) {
            iq -= commit;
            credit -= (double)commit;
            base_cycles++;
            if (credit > ipc) {
                credit = ipc;
            }
            committed += commit;
            last_commit = offset;
        } else if (credit >= 1.0) {
            stalled = 1;
            break;
        } else {
            base_cycles++;
        }
    }
    return Py_BuildValue("(LLLLdO)", committed, base_cycles, last_commit,
                         iq, credit, stalled ? Py_True : Py_False);
}

static PyMethodDef kernels_methods[] = {
    {"warm_span", (PyCFunction)kernels_warm_span, METH_FASTCALL,
     "Warm a whole encoded span: iTLB + lb/L1/L2 + branch structures."},
    {"replay_walk", (PyCFunction)kernels_replay_walk, METH_FASTCALL,
     "Walk a deterministic commit/pacing credit trajectory."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "_native",
    "Compiled hot-structure kernels (see repro.kernels.pylib).",
    -1,
    kernels_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&kernels_module);
}
