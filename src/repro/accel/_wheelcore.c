/* _wheelcore.c — compiled dispatch core for the repro timing wheel.
 *
 * This extension reimplements the dispatch loop of
 * repro.sim.engine.TimingWheel (run_until) behind a base type the Python
 * backend classes subclass, plus C twins of the hottest event callbacks
 * (the native kinds, see repro.accel.native).  It is a *mirror*, not a
 * redesign: every loop below is a line-for-line port of the pure-Python
 * reference, and the determinism contract is byte-identical dispatch
 * order — see DESIGN.md §12 for the argument.
 *
 * Marshal compatibility: all scheduler state lives in Python-visible
 * members (plain lists for the wheel/overflow, C long longs for the
 * counters, exposed as attributes with the exact names the pure class
 * uses).  The pure-Python scheduling entry points (post/post_at/...),
 * the sanitizer, the checkpoint pickler, and the inlined wheel inserts
 * in system.py/controller.py therefore operate on a WheelCore instance
 * unchanged, and wheel state moves losslessly between backends.
 *
 * Overflow-heap layout: the siftup/siftdown routines replicate CPython
 * heapq's algorithms exactly (element comparisons via PyObject_RichCompareBool
 * on the (when, seq, entry) tuples), so a heap built by any mix of C
 * and Python pushes has the identical array layout — which the
 * sanitizer's on_restore heap-order audit and cross-backend checkpoint
 * restores both rely on.
 *
 * Build: gcc -O2 -shared -fPIC (see repro.accel.build); no libraries
 * beyond Python.h.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#define WHEEL_BITS 12
#define WHEEL_SIZE (1LL << WHEEL_BITS)
#define WHEEL_MASK (WHEEL_SIZE - 1)
/* Pure code uses 1 << 63 for "no refill pending"; the C loop never
 * materializes the sentinel as a Python int, so LLONG_MAX serves. */
#define NEVER_LL LLONG_MAX

/* SimulationError, injected by repro.accel after load (_install). */
static PyObject *g_sim_error = NULL;
/* Process-wide dispatch counter for this backend; engine.dispatched_total()
 * adds it to the pure loop's module counter. */
static long long g_dispatched_total = 0;
/* Process-wide native fast-path counters (per-engine twins live on the
 * WheelCore struct); fastpath_stats() reports these. */
static long long g_fp_hits = 0;
static long long g_fp_misses = 0;

/* interned attribute / method names */
static PyObject *s_as_cycles, *s_on_event, *s_deadline_word;
static PyObject *s_bank_id, *s_row_id, *s_open_page, *s_open_row;
static PyObject *s_prep_hit, *s_prep_miss;
/* native fast path: pacer (s_burst doubles for bus._burst) */
static PyObject *s_popleft, *s_release_token, *s_blocked, *s_den;
static PyObject *s_period_num, *s_cnext_scaled, *s_released;
/* native fast path: controller */
static PyObject *s_pass_token, *s_pass_at, *s_draining_writes;
static PyObject *s_read_queue, *s_write_queue, *s_wm_low, *s_wm_high;
static PyObject *s_banks, *s_uniform_prep, *s_bus, *s_free_at;
static PyObject *s_busy_cycles, *s_transfers, *s_burst, *s_busy_until;
static PyObject *s_accesses, *s_row_hits, *s_recovery;
static PyObject *s_bank_busy, *s_busy_times;
static PyObject *s_dispatched_at, *s_issued_at, *s_on_issue, *s_issued;
static PyObject *s_on_complete, *s_completed, *s_on_accept, *s_arrived;
static PyObject *s_bus_busy_cycles, *s_is_memory_write, *s_is_read;
static PyObject *s_occ_integral, *s_occ_last_update;
static PyObject *s_fused, *s_respond_fn, *s_complete_name;
static PyObject *s_complete_fused_name, *s_run_pass_name, *s_core_id;
static PyObject *s_issue_name;
static PyObject *s_stats_attr, *s_inflight, *s_active_since;
static PyObject *s_active_cycles, *s_mc_active_cycles, *s_min_prep;
static PyObject *s_space_listeners, *s_mc_id, *s_policy, *s_pick;
static PyObject *s_read_capacity, *s_write_capacity, *s_rejects;
static PyObject *s_requests_rejected, *s_reads_accepted, *s_writes_accepted;
static PyObject *s_requests_enqueued, *s_arrived_mc_at, *s_map, *s_decode;
static PyObject *s_addr, *s_record_completion, *s_on_read_complete;
static PyObject *s_try_enqueue, *s_engine_pub, *s_engine_priv;
/* native fast path: stats */
static PyObject *s_classes, *s_qos_id, *s_size, *s_bytes_read;
static PyObject *s_bytes_written, *s_reads_completed, *s_writes_completed;
static PyObject *s_read_latency_sum, *s_read_latency_max;
static PyObject *s_reads_attributed, *s_reads_unattributed;
static PyObject *s_stage_pacer_sum, *s_stage_noc_sum, *s_stage_queue_sum;
static PyObject *s_stage_service_sum, *s_sample_latencies, *s_epoch_bytes;
static PyObject *s_created_at, *s_released_at, *s_completed_at;
/* native fast path: system */
static PyObject *s_mc_arrivals, *s_mc_pump_armed, *s_mc_space_hint;
static PyObject *s_mc_pending_writes, *s_mc_pending_reads;
static PyObject *s_mc_read_sources, *s_mc_rr_pointer, *s_resp_inbox;
static PyObject *s_controllers, *s_pump_mc_name, *s_flush_responses_name;
static PyObject *s_respond_name, *s_l3_hit, *s_noc_seq;
static PyObject *s_sort, *s_append;
/* native fast path: PABST priority arbiter */
static PyObject *s_registry, *s_slack, *s_row_hits_first, *s_clocks;
static PyObject *s_last_picked_deadline, *s_capped_deadlines;
static PyObject *s_virtual_deadline, *s_req_id, *s_stride;
static PyObject *s_qos_classes; /* QoSRegistry._classes */
/* native fast path: instance-dict shadow guards.  Pure Python freshly
 * looks these methods up at call/schedule time, so an instance-dict
 * override (a test monkeypatching one component) must push that
 * component off the fast path — the mirrors bind cached class
 * functions and inlined bodies that would silently bypass it. */
static PyObject *s_issue_ready_name, *s_ready_name, *s_notify_space_name;
static PyObject *s_schedule_wakeup_name, *s_request_pass_name;
static PyObject *s_retire_name, *s_update_occupancy_name;
static PyObject *s_release_head_name, *s_release_now_name;
static PyObject *s_release_time_name;
static PyObject *s_admit_pending_name, *s_queue_pending_name;
#define SHADOW_MAX 12
static PyObject *g_shadow_ctrl[SHADOW_MAX];
static PyObject *g_shadow_pacer[SHADOW_MAX];
static PyObject *g_shadow_system[SHADOW_MAX];
static PyObject *g_shadow_arb[SHADOW_MAX];
static int g_shadow_ctrl_n, g_shadow_pacer_n, g_shadow_system_n,
    g_shadow_arb_n;

/* shared immortal-ish objects, created at module init / kind install */
static PyObject *g_empty_tuple = NULL;
static PyObject *g_zero = NULL;
static PyObject *g_one = NULL;
static PyObject *g_kw_key = NULL;   /* {"key": system._BY_KEY}      */
static PyObject *g_kw_noc = NULL;   /* {"key": system._BY_NOC_SEQ}  */
static PyObject *g_cls_controller = NULL;
static PyObject *g_cls_bank = NULL;
static PyObject *g_cls_databus = NULL;
static PyObject *g_cls_stats = NULL;
static PyObject *g_cls_class_stats = NULL;
static PyObject *g_cls_deque = NULL;
/* Registered kind functions the handlers re-bind with PyMethod_New
 * (cheaper than a descriptor lookup; identical to `owner._name` because
 * the exact-class guard pins the class attribute to these functions). */
static PyObject *g_fn_run_pass = NULL;
static PyObject *g_fn_complete = NULL;
static PyObject *g_fn_complete_fused = NULL;
static PyObject *g_fn_pump_mc = NULL;
static PyObject *g_fn_flush_responses = NULL;
/* Synchronous native mirrors (not wheel-dispatched): the space-hint
 * listener and the PABST arbiter, recognized at their C call sites. */
static PyObject *g_fn_on_mc_space = NULL;
static PyObject *g_cls_system = NULL;
static PyObject *g_cls_arbiter = NULL;

#define FAR_LL (1LL << 62)

/* ------------------------------------------------------------------ */
/* small helpers                                                      */
/* ------------------------------------------------------------------ */

static int
ll_from(PyObject *obj, long long *out)
{
    long long value = PyLong_AsLongLong(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    *out = value;
    return 0;
}

/* callback(*args): args is a tuple on every engine-built entry; fall
 * back to sequence conversion for hand-built entries, mirroring the
 * pure loop's *-unpacking semantics. */
static int
call_callback(PyObject *callback, PyObject *args)
{
    PyObject *result;
    if (PyTuple_Check(args)) {
        result = PyObject_CallObject(callback, args);
    }
    else {
        PyObject *packed = PySequence_Tuple(args);
        if (packed == NULL)
            return -1;
        result = PyObject_CallObject(callback, packed);
        Py_DECREF(packed);
    }
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* ------------------------------------------------------------------ */
/* heapq replica (push/pop on a plain PyList of (when, seq, entry))   */
/* ------------------------------------------------------------------ */

static int
heap_lt(PyObject *a, PyObject *b)
{
    /* Exactly heapq's `a < b`; (when, seq) is unique so the compare
     * never falls through to the entry. */
    return PyObject_RichCompareBool(a, b, Py_LT);
}

static int
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int lt = heap_lt(newitem, parent);
        if (lt < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        if (!lt)
            break;
        Py_INCREF(parent);
        PyList_SetItem(heap, pos, parent);
        pos = parentpos;
    }
    PyList_SetItem(heap, pos, newitem);
    return 0;
}

static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos) {
            int lt = heap_lt(PyList_GET_ITEM(heap, childpos),
                             PyList_GET_ITEM(heap, rightpos));
            if (lt < 0) {
                Py_DECREF(newitem);
                return -1;
            }
            if (!lt)
                childpos = rightpos;
        }
        PyObject *child = PyList_GET_ITEM(heap, childpos);
        Py_INCREF(child);
        PyList_SetItem(heap, pos, child);
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    PyList_SetItem(heap, pos, newitem);
    return heap_siftdown(heap, startpos, pos);
}

static int
heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    return heap_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* Returns a new reference, or NULL on error. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    if (n == 0) {
        PyErr_SetString(PyExc_IndexError, "index out of range");
        return NULL;
    }
    PyObject *lastelt = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(lastelt);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(lastelt);
        return NULL;
    }
    if (PyList_GET_SIZE(heap)) {
        PyObject *returnitem = PyList_GET_ITEM(heap, 0);
        Py_INCREF(returnitem);
        PyList_SetItem(heap, 0, lastelt);
        if (heap_siftup(heap, 0) < 0) {
            Py_DECREF(returnitem);
            return NULL;
        }
        return returnitem;
    }
    return lastelt;
}

/* when of overflow[0]; -1 on error, 0 with *has=0 when empty. */
static int
overflow_head(PyObject *overflow, long long *when, int *has)
{
    if (PyList_GET_SIZE(overflow) == 0) {
        *has = 0;
        return 0;
    }
    PyObject *head = PyList_GET_ITEM(overflow, 0);
    if (!PyTuple_Check(head) || PyTuple_GET_SIZE(head) < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "overflow heap entry is not a (when, seq, entry) tuple");
        return -1;
    }
    if (ll_from(PyTuple_GET_ITEM(head, 0), when) < 0)
        return -1;
    *has = 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* WheelCore type                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    long long now;
    long long seq;
    long long wheel_pos;
    long long horizon;
    long long wheel_count;
    long long dispatched;
    long long fastpath_hits;    /* events run by a native kind handler  */
    long long fastpath_misses;  /* events that bounced back into Python */
    PyObject *wheel;       /* list of WHEEL_SIZE per-cycle FIFO lists   */
    PyObject *wheel_late;  /* second bucket array for the late phase    */
    PyObject *overflow;    /* heap list of (when, seq, entry)           */
    PyObject *sanitizer;   /* None or SimSanitizer                      */
    PyObject *tracer;      /* None or RequestTracer                     */
} WheelCore;

/* Native fast path (implementation after the controller kernels):
 * returns 1 when a registered kind handler ran the callback natively,
 * 0 to fall back to the Python call path, -1 on error.  Counts its own
 * hits and misses. */
static int native_dispatch(WheelCore *self, PyObject *cb, PyObject *args);

static int
check_state(WheelCore *self)
{
    if (self->wheel == NULL || !PyList_Check(self->wheel) ||
        self->wheel_late == NULL || !PyList_Check(self->wheel_late) ||
        self->overflow == NULL || !PyList_Check(self->overflow)) {
        PyErr_SetString(PyExc_TypeError,
                        "WheelCore state is uninitialized (wheel arrays "
                        "must be lists; did __init__ run?)");
        return -1;
    }
    if (PyList_GET_SIZE(self->wheel) != WHEEL_SIZE ||
        PyList_GET_SIZE(self->wheel_late) != WHEEL_SIZE) {
        PyErr_SetString(PyExc_TypeError,
                        "WheelCore bucket arrays must hold exactly "
                        "4096 buckets");
        return -1;
    }
    return 0;
}

/* self._refill(), C side: move overflow entries now inside the window. */
static int
core_refill(WheelCore *self)
{
    long long moved = 0;
    for (;;) {
        long long when;
        int has;
        if (overflow_head(self->overflow, &when, &has) < 0)
            return -1;
        if (!has || when >= self->horizon)
            break;
        PyObject *item = heap_pop(self->overflow);
        if (item == NULL)
            return -1;
        PyObject *bucket =
            PyList_GET_ITEM(self->wheel, (Py_ssize_t)(when & WHEEL_MASK));
        if (!PyList_Check(bucket)) {
            Py_DECREF(item);
            PyErr_SetString(PyExc_TypeError, "wheel bucket is not a list");
            return -1;
        }
        int rc = PyList_Append(bucket, PyTuple_GET_ITEM(item, 2));
        Py_DECREF(item);
        if (rc < 0)
            return -1;
        moved++;
    }
    self->wheel_count += moved;
    return 0;
}

/* Insert a fused chain's continuation: mirror of the inline block in
 * the pure TimingWheel._drain (self->horizon is pos + WHEEL_SIZE while
 * a bucket dispatches). */
static int
chain_continue(WheelCore *self, PyObject *entry, long long pos)
{
    long long link_delay;
    if (ll_from(PyList_GET_ITEM(entry, 2), &link_delay) < 0)
        return -1;
    long long when2 = pos + link_delay;
    PyObject *cont = PyTuple_Pack(2, PyList_GET_ITEM(entry, 3),
                                  PyList_GET_ITEM(entry, 4));
    if (cont == NULL)
        return -1;
    if (when2 < self->horizon) {
        PyObject *bucket =
            PyList_GET_ITEM(self->wheel, (Py_ssize_t)(when2 & WHEEL_MASK));
        int rc = PyList_Append(bucket, cont);
        Py_DECREF(cont);
        if (rc < 0)
            return -1;
        self->wheel_count += 1;
        return 0;
    }
    long long seq = self->seq;
    self->seq = seq + 1;
    PyObject *when_obj = PyLong_FromLongLong(when2);
    PyObject *seq_obj = PyLong_FromLongLong(seq);
    PyObject *item = NULL;
    if (when_obj != NULL && seq_obj != NULL)
        item = PyTuple_Pack(3, when_obj, seq_obj, cont);
    Py_XDECREF(when_obj);
    Py_XDECREF(seq_obj);
    Py_DECREF(cont);
    if (item == NULL)
        return -1;
    int rc = heap_push(self->overflow, item);
    Py_DECREF(item);
    return rc;
}

static int
sanitizer_on_event(PyObject *sanitizer, long long when, long long prev)
{
    PyObject *when_obj = PyLong_FromLongLong(when);
    if (when_obj == NULL)
        return -1;
    PyObject *prev_obj = PyLong_FromLongLong(prev);
    if (prev_obj == NULL) {
        Py_DECREF(when_obj);
        return -1;
    }
    PyObject *result = PyObject_CallMethodObjArgs(
        sanitizer, s_on_event, when_obj, prev_obj, NULL);
    Py_DECREF(when_obj);
    Py_DECREF(prev_obj);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* Dispatch every entry of one bucket list for cycle `pos`, picking up
 * same-cycle appends (list-iterator semantics: the size is re-read every
 * step).  Mirrors TimingWheel._drain; *prev_io carries the sanitizer's
 * previous-dispatch clock across the two phases.  Returns -1 on error. */
static int
dispatch_bucket(WheelCore *self, PyObject *bucket, long long pos,
                PyObject *sanitizer, long long *prev_io)
{
    Py_ssize_t index = 0;
    while (index < PyList_GET_SIZE(bucket)) {
        PyObject *entry = PyList_GET_ITEM(bucket, index);
        index++;
        int is_list = PyList_CheckExact(entry);
        if (!is_list && !PyTuple_CheckExact(entry)) {
            PyErr_SetString(PyExc_TypeError,
                            "wheel entry is neither a (callback, args) "
                            "tuple nor a chain list");
            return -1;
        }
        /* the entry stays alive even if a callback clears the bucket */
        Py_INCREF(entry);
        int rc = 0;
        if (sanitizer != NULL) {
            rc = sanitizer_on_event(sanitizer, pos, *prev_io);
            *prev_io = pos;
        }
        PyObject *cb = is_list ? PyList_GET_ITEM(entry, 0)
                               : PyTuple_GET_ITEM(entry, 0);
        PyObject *cb_args = is_list ? PyList_GET_ITEM(entry, 1)
                                    : PyTuple_GET_ITEM(entry, 1);
        if (rc == 0) {
            int handled = native_dispatch(self, cb, cb_args);
            if (handled < 0)
                rc = -1;
            else if (!handled)
                rc = call_callback(cb, cb_args);
        }
        if (rc == 0 && is_list)
            rc = chain_continue(self, entry, pos);
        Py_DECREF(entry);
        if (rc < 0)
            return -1;
    }
    return 0;
}

static PyObject *
WheelCore_run_until(WheelCore *self, PyObject *arg)
{
    long long deadline;
    if (PyLong_CheckExact(arg)) {
        if (ll_from(arg, &deadline) < 0)
            return NULL;
    }
    else {
        PyObject *coerced = PyObject_CallMethodObjArgs(
            (PyObject *)self, s_as_cycles, arg, s_deadline_word, NULL);
        if (coerced == NULL)
            return NULL;
        int rc = ll_from(coerced, &deadline);
        Py_DECREF(coerced);
        if (rc < 0)
            return NULL;
    }
    if (check_state(self) < 0)
        return NULL;

    PyObject *wheel = self->wheel;
    PyObject *late_wheel = self->wheel_late;
    PyObject *overflow = self->overflow;
    PyObject *sanitizer =
        (self->sanitizer == NULL || self->sanitizer == Py_None)
            ? NULL
            : self->sanitizer;
    /* The pure loop binds these as locals for the whole call; keep them
     * alive across callbacks the same way. */
    Py_INCREF(wheel);
    Py_INCREF(late_wheel);
    Py_INCREF(overflow);
    Py_XINCREF(sanitizer);

    long long dispatched = 0;
    long long pos = self->wheel_pos;
    int failed = 0;

    if (core_refill(self) < 0) {
        failed = 1;
        goto settle;
    }
    long long next_refill = NEVER_LL;
    {
        long long head;
        int has;
        if (overflow_head(overflow, &head, &has) < 0) {
            failed = 1;
            goto settle;
        }
        next_refill = has ? head - WHEEL_SIZE + 1 : NEVER_LL;
    }

    while (pos <= deadline) {
        Py_ssize_t slot = (Py_ssize_t)(pos & WHEEL_MASK);
        PyObject *bucket = PyList_GET_ITEM(wheel, slot);
        if (PyList_GET_SIZE(bucket) == 0 &&
            PyList_GET_SIZE(PyList_GET_ITEM(late_wheel, slot)) == 0) {
            if (self->wheel_count) {
                pos += 1;
                if (pos >= next_refill) {
                    self->wheel_pos = pos;
                    self->horizon = pos + WHEEL_SIZE;
                    if (core_refill(self) < 0) {
                        failed = 1;
                        goto settle;
                    }
                    long long head;
                    int has;
                    if (overflow_head(overflow, &head, &has) < 0) {
                        failed = 1;
                        goto settle;
                    }
                    next_refill = has ? head - WHEEL_SIZE + 1 : NEVER_LL;
                }
                continue;
            }
            long long head;
            int has;
            if (overflow_head(overflow, &head, &has) < 0) {
                failed = 1;
                goto settle;
            }
            if (!has || head > deadline)
                break;
            /* wheel empty: jump straight to the overflow head */
            pos = head;
            self->wheel_pos = pos;
            self->horizon = pos + WHEEL_SIZE;
            if (core_refill(self) < 0) {
                failed = 1;
                goto settle;
            }
            if (overflow_head(overflow, &head, &has) < 0) {
                failed = 1;
                goto settle;
            }
            next_refill = has ? head - WHEEL_SIZE + 1 : NEVER_LL;
            continue;
        }
        /* ---- dispatch every entry at cycle `pos` ---- */
        self->wheel_pos = pos;
        self->horizon = pos + WHEEL_SIZE;
        long long prev = self->now;
        self->now = pos;
        if (dispatch_bucket(self, bucket, pos, sanitizer, &prev) < 0) {
            failed = 1;
            goto settle;
        }
        dispatched += PyList_GET_SIZE(bucket);
        self->wheel_count -= PyList_GET_SIZE(bucket);
        if (PyList_SetSlice(bucket, 0, PyList_GET_SIZE(bucket), NULL) < 0) {
            failed = 1;
            goto settle;
        }
        PyObject *late = PyList_GET_ITEM(late_wheel, slot);
        if (PyList_GET_SIZE(late) != 0) {
            /* ---- late phase: slot-swap so zero-delay posts made by
             * late callbacks land in the list being iterated ---- */
            Py_INCREF(late);   /* working reference */
            Py_INCREF(bucket); /* keep alive across the swap */
            Py_INCREF(late);
            PyList_SetItem(wheel, slot, late); /* steals; drops bucket */
            if (dispatch_bucket(self, late, pos, sanitizer, &prev) < 0) {
                /* mirror pure control flow: the finally block does not
                 * restore the swapped slot on an exception */
                Py_DECREF(late);
                Py_DECREF(bucket);
                failed = 1;
                goto settle;
            }
            dispatched += PyList_GET_SIZE(late);
            self->wheel_count -= PyList_GET_SIZE(late);
            if (PyList_SetSlice(late, 0, PyList_GET_SIZE(late), NULL) < 0) {
                Py_DECREF(late);
                Py_DECREF(bucket);
                failed = 1;
                goto settle;
            }
            PyList_SetItem(wheel, slot, bucket); /* steals; drops late */
            Py_DECREF(late);
        }
        pos += 1;
        /* callbacks may have pushed new far-future work */
        long long head;
        int has;
        if (overflow_head(overflow, &head, &has) < 0) {
            failed = 1;
            goto settle;
        }
        next_refill = has ? head - WHEEL_SIZE + 1 : NEVER_LL;
        if (pos >= next_refill) {
            self->wheel_pos = pos;
            self->horizon = pos + WHEEL_SIZE;
            if (core_refill(self) < 0) {
                failed = 1;
                goto settle;
            }
            if (overflow_head(overflow, &head, &has) < 0) {
                failed = 1;
                goto settle;
            }
            next_refill = has ? head - WHEEL_SIZE + 1 : NEVER_LL;
        }
    }

settle:
    /* the pure loop's finally block */
    self->dispatched += dispatched;
    g_dispatched_total += dispatched;
    Py_DECREF(wheel);
    Py_DECREF(late_wheel);
    Py_DECREF(overflow);
    Py_XDECREF(sanitizer);
    if (failed)
        return NULL;
    if (self->now < deadline)
        self->now = deadline;
    if (self->wheel_pos < deadline) {
        /* the window slides without dispatching: refill before a post
         * can overtake an earlier overflow entry for the same cycle */
        self->wheel_pos = deadline;
        self->horizon = deadline + WHEEL_SIZE;
        if (core_refill(self) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyMemberDef WheelCore_members[] = {
    {"_now", T_LONGLONG, offsetof(WheelCore, now), 0,
     "current simulation cycle"},
    {"_seq", T_LONGLONG, offsetof(WheelCore, seq), 0,
     "global insertion sequence counter"},
    {"_wheel_pos", T_LONGLONG, offsetof(WheelCore, wheel_pos), 0,
     "window start cycle"},
    {"_horizon", T_LONGLONG, offsetof(WheelCore, horizon), 0,
     "window end cycle (wheel_pos + 4096)"},
    {"_wheel_count", T_LONGLONG, offsetof(WheelCore, wheel_count), 0,
     "entries sitting in wheel buckets (both phases)"},
    {"dispatched", T_LONGLONG, offsetof(WheelCore, dispatched), 0,
     "events dispatched by this engine"},
    {"fastpath_hits", T_LONGLONG, offsetof(WheelCore, fastpath_hits), 0,
     "events executed natively by a registered kind handler"},
    {"fastpath_misses", T_LONGLONG, offsetof(WheelCore, fastpath_misses), 0,
     "events that fell back to the Python callback path"},
    {"_wheel", T_OBJECT, offsetof(WheelCore, wheel), 0,
     "per-cycle FIFO bucket lists"},
    {"_wheel_late", T_OBJECT, offsetof(WheelCore, wheel_late), 0,
     "late-phase bucket lists"},
    {"_overflow", T_OBJECT, offsetof(WheelCore, overflow), 0,
     "(when, seq, entry) heap beyond the window"},
    {"sanitizer", T_OBJECT, offsetof(WheelCore, sanitizer), 0,
     "opt-in runtime invariant checker"},
    {"tracer", T_OBJECT, offsetof(WheelCore, tracer), 0,
     "opt-in request lifecycle recorder"},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef WheelCore_methods[] = {
    {"run_until", (PyCFunction)WheelCore_run_until, METH_O,
     "Dispatch events with timestamp <= deadline (compiled)."},
    {NULL, NULL, 0, NULL},
};

static int
WheelCore_traverse(WheelCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->wheel);
    Py_VISIT(self->wheel_late);
    Py_VISIT(self->overflow);
    Py_VISIT(self->sanitizer);
    Py_VISIT(self->tracer);
    return 0;
}

static int
WheelCore_clear(WheelCore *self)
{
    Py_CLEAR(self->wheel);
    Py_CLEAR(self->wheel_late);
    Py_CLEAR(self->overflow);
    Py_CLEAR(self->sanitizer);
    Py_CLEAR(self->tracer);
    return 0;
}

static void
WheelCore_dealloc(WheelCore *self)
{
    PyObject_GC_UnTrack(self);
    WheelCore_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject WheelCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_wheelcore.WheelCore",
    .tp_basicsize = sizeof(WheelCore),
    .tp_dealloc = (destructor)WheelCore_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled timing-wheel dispatch core (see repro.accel).",
    .tp_traverse = (traverseproc)WheelCore_traverse,
    .tp_clear = (inquiry)WheelCore_clear,
    .tp_methods = WheelCore_methods,
    .tp_members = WheelCore_members,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* controller kernels                                                 */
/* ------------------------------------------------------------------ */

/* Bank.prep_cycles(row), reading the Bank's flattened timing slots. */
static int
bank_prep_cycles(PyObject *bank, PyObject *row_obj, long long *out)
{
    PyObject *open_page = PyObject_GetAttr(bank, s_open_page);
    if (open_page == NULL)
        return -1;
    int is_open = PyObject_IsTrue(open_page);
    Py_DECREF(open_page);
    if (is_open < 0)
        return -1;
    PyObject *which = s_prep_miss;
    if (is_open) {
        PyObject *open_row = PyObject_GetAttr(bank, s_open_row);
        if (open_row == NULL)
            return -1;
        int hit = PyObject_RichCompareBool(open_row, row_obj, Py_EQ);
        Py_DECREF(open_row);
        if (hit < 0)
            return -1;
        if (hit)
            which = s_prep_hit;
    }
    PyObject *prep = PyObject_GetAttr(bank, which);
    if (prep == NULL)
        return -1;
    int rc = ll_from(prep, out);
    Py_DECREF(prep);
    return rc;
}

/* Mirror of MemoryController._ready: requests whose bank is free and
 * whose prep covers the data-bus backlog, in queue order.  Callers
 * guarantee list-typed queue/busy/banks. */
static PyObject *
ready_scan_impl(PyObject *queue, PyObject *busy, PyObject *banks,
                PyObject *uniform_prep, long long bus_backlog, long long now)
{
    PyObject *ready = PyList_New(0);
    if (ready == NULL)
        return NULL;
    int uniform = uniform_prep != Py_None;
    long long uniform_ll = 0;
    if (uniform) {
        if (ll_from(uniform_prep, &uniform_ll) < 0)
            goto fail;
        /* closed page: the bus gate blocks the whole queue or none */
        if (uniform_ll < bus_backlog)
            return ready;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(queue); i++) {
        PyObject *req = PyList_GET_ITEM(queue, i);
        PyObject *bank_obj = PyObject_GetAttr(req, s_bank_id);
        if (bank_obj == NULL)
            goto fail;
        long long bank_id;
        int rc = ll_from(bank_obj, &bank_id);
        Py_DECREF(bank_obj);
        if (rc < 0)
            goto fail;
        if (bank_id < 0 || bank_id >= PyList_GET_SIZE(busy)) {
            PyErr_Format(PyExc_IndexError,
                         "request bank_id %lld out of range", bank_id);
            goto fail;
        }
        long long busy_until;
        if (ll_from(PyList_GET_ITEM(busy, (Py_ssize_t)bank_id),
                    &busy_until) < 0)
            goto fail;
        if (busy_until > now)
            continue;
        if (!uniform) {
            PyObject *row_obj = PyObject_GetAttr(req, s_row_id);
            if (row_obj == NULL)
                goto fail;
            long long prep;
            rc = bank_prep_cycles(
                PyList_GET_ITEM(banks, (Py_ssize_t)bank_id), row_obj, &prep);
            Py_DECREF(row_obj);
            if (rc < 0)
                goto fail;
            if (prep < bus_backlog)
                continue;
        }
        if (PyList_Append(ready, req) < 0)
            goto fail;
    }
    return ready;
fail:
    Py_DECREF(ready);
    return NULL;
}

/* Mirror of _issue_ready's incremental post-pick filters: drop the
 * issued request, everything on its (now busy) bank, and — open page —
 * everything whose prep no longer covers the tightened bus gate.
 * Callers guarantee list-typed ready/banks. */
static PyObject *
filter_ready_impl(PyObject *ready, PyObject *picked, PyObject *banks,
                  PyObject *uniform_prep, long long bus_backlog)
{
    PyObject *picked_bank = PyObject_GetAttr(picked, s_bank_id);
    if (picked_bank == NULL)
        return NULL;
    long long bank_id;
    if (ll_from(picked_bank, &bank_id) < 0) {
        Py_DECREF(picked_bank);
        return NULL;
    }
    Py_DECREF(picked_bank);
    int uniform = uniform_prep != Py_None;
    PyObject *kept = PyList_New(0);
    if (kept == NULL)
        return NULL;
    if (uniform) {
        long long uniform_ll;
        if (ll_from(uniform_prep, &uniform_ll) < 0) {
            Py_DECREF(kept);
            return NULL;
        }
        /* closed page: the tightened bus gate blocks everything or nothing */
        if (uniform_ll < bus_backlog)
            return kept;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(ready); i++) {
        PyObject *req = PyList_GET_ITEM(ready, i);
        if (req == picked)
            continue;
        PyObject *bank_obj = PyObject_GetAttr(req, s_bank_id);
        if (bank_obj == NULL)
            goto fail;
        long long req_bank;
        int rc = ll_from(bank_obj, &req_bank);
        Py_DECREF(bank_obj);
        if (rc < 0)
            goto fail;
        if (req_bank == bank_id)
            continue;
        if (!uniform) {
            if (req_bank < 0 || req_bank >= PyList_GET_SIZE(banks)) {
                PyErr_Format(PyExc_IndexError,
                             "request bank_id %lld out of range", req_bank);
                goto fail;
            }
            PyObject *row_obj = PyObject_GetAttr(req, s_row_id);
            if (row_obj == NULL)
                goto fail;
            long long prep;
            rc = bank_prep_cycles(
                PyList_GET_ITEM(banks, (Py_ssize_t)req_bank), row_obj, &prep);
            Py_DECREF(row_obj);
            if (rc < 0)
                goto fail;
            if (prep < bus_backlog)
                continue;
        }
        if (PyList_Append(kept, req) < 0)
            goto fail;
    }
    return kept;
fail:
    Py_DECREF(kept);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* native event fast path                                             */
/*                                                                    */
/* The dominant event callbacks (pacer release chains, controller     */
/* pass tokens and completions, the system's NoC delivery/response    */
/* pumps) are transcribed below as C handlers keyed by "kind": the    */
/* dispatch loop recognizes an entry's bound-method callback by       */
/* (function pointer, exact owner class, owner engine == self) and    */
/* run the C twin instead of bouncing into the interpreter.  This is  */
/* a *code* mirror, not a state mirror: handlers read and write the   */
/* same canonical Python attributes the pure methods use, so there    */
/* is no shadow state to sync and checkpoints stay backend-neutral.   */
/* Every mutation, Python-level call (policy/sanitizer/tracer/        */
/* closures), and raised error matches the pure transcription line    */
/* for line; only attribute *read counts* differ, which no program    */
/* can observe.  A handler that meets state outside its vetted shape  */
/* declines before mutating anything and the entry falls back to the  */
/* Python callback path (counted as a fast-path miss).                */
/* ------------------------------------------------------------------ */

/* Instance-dict fast path for attribute access.  The handlers only
 * touch *exact* registered classes (guarded at dispatch), and none of
 * those classes shadow the accessed names with data descriptors, so an
 * instance-dict hit is semantically identical to PyObject_GetAttr at a
 * fraction of the cost.  Slotted objects (Bank, MemoryRequest,
 * ClassStats) have no dict pointer and fall back transparently. */

/* borrowed ref, NULL = not found this way (no error left pending) */
static inline PyObject *
inst_get(PyObject *obj, PyObject *name)
{
    PyObject **dictptr = _PyObject_GetDictPtr(obj);
    if (dictptr == NULL || *dictptr == NULL ||
        !PyDict_CheckExact(*dictptr))
        return NULL;
    PyObject *value = PyDict_GetItemWithError(*dictptr, name);
    if (value == NULL && PyErr_Occurred())
        PyErr_Clear();
    return value;
}

/* new ref; raises like PyObject_GetAttr on a truly missing attribute */
static PyObject *
fast_getattr(PyObject *obj, PyObject *name)
{
    PyObject *value = inst_get(obj, name);
    if (value != NULL) {
        Py_INCREF(value);
        return value;
    }
    return PyObject_GetAttr(obj, name);
}

static int
fast_setattr(PyObject *obj, PyObject *name, PyObject *value)
{
    PyObject **dictptr = _PyObject_GetDictPtr(obj);
    if (dictptr != NULL && *dictptr != NULL &&
        PyDict_CheckExact(*dictptr))
        return PyDict_SetItem(*dictptr, name, value);
    return PyObject_SetAttr(obj, name, value);
}

/* 1 if the owner's instance dict shadows any of the given method
 * names.  Checked before a mirror's first observable mutation: a
 * shadowed component leaves the fast path entirely, so the Python
 * reference path dispatches to the override exactly as pure would.
 * Never leaves an error pending. */
static int
owner_shadows(PyObject *owner, PyObject *const *names, int count)
{
    PyObject **dictptr = _PyObject_GetDictPtr(owner);
    if (dictptr == NULL || *dictptr == NULL ||
        !PyDict_CheckExact(*dictptr))
        return 0;
    PyObject *dict = *dictptr;
    for (int i = 0; i < count; i++) {
        PyObject *hit = PyDict_GetItemWithError(dict, names[i]);
        if (hit != NULL)
            return 1;
        if (PyErr_Occurred())
            PyErr_Clear();
    }
    return 0;
}

static int
get_ll_attr(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = inst_get(obj, name);
    if (value != NULL)
        return ll_from(value, out);
    value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int rc = ll_from(value, out);
    Py_DECREF(value);
    return rc;
}

static int
set_ll_attr(PyObject *obj, PyObject *name, long long value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    if (boxed == NULL)
        return -1;
    int rc = fast_setattr(obj, name, boxed);
    Py_DECREF(boxed);
    return rc;
}

static int
add_ll_attr(PyObject *obj, PyObject *name, long long delta)
{
    long long value;
    if (get_ll_attr(obj, name, &value) < 0)
        return -1;
    return set_ll_attr(obj, name, value + delta);
}

/* obj.<name> truthiness: -1 error, else 0/1 */
static int
truthy_attr(PyObject *obj, PyObject *name)
{
    PyObject *value = inst_get(obj, name);
    if (value != NULL)
        return PyObject_IsTrue(value);
    value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int truth = PyObject_IsTrue(value);
    Py_DECREF(value);
    return truth;
}

/* obj.<method>(arg), result discarded; 0/-1 */
static int
call_1(PyObject *obj, PyObject *method, PyObject *arg)
{
    PyObject *result = PyObject_CallMethodObjArgs(obj, method, arg, NULL);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* bisect.bisect_right / bisect_left over a list of ints; -1 on error */
static Py_ssize_t
bisect_right_ll(PyObject *list, long long value)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(list);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        long long item;
        if (ll_from(PyList_GET_ITEM(list, mid), &item) < 0)
            return -1;
        if (value < item)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

static Py_ssize_t
bisect_left_ll(PyObject *list, long long value)
{
    Py_ssize_t lo = 0, hi = PyList_GET_SIZE(list);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        long long item;
        if (ll_from(PyList_GET_ITEM(list, mid), &item) < 0)
            return -1;
        if (item < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Engine.post_at's body for a pre-validated int `when` >= _now and a
 * ready-made entry (borrowed).  Also the exact tail of post_chain_at
 * and of the inlined wheel inserts in controller.py: same end state
 * (wheel_count/seq, bucket append vs heap push). */
static int
core_post_entry(WheelCore *self, long long when, PyObject *entry)
{
    if (when < self->horizon) {
        PyObject *bucket =
            PyList_GET_ITEM(self->wheel, (Py_ssize_t)(when & WHEEL_MASK));
        if (!PyList_Check(bucket)) {
            PyErr_SetString(PyExc_TypeError, "wheel bucket is not a list");
            return -1;
        }
        if (PyList_Append(bucket, entry) < 0)
            return -1;
        self->wheel_count += 1;
        return 0;
    }
    long long seq = self->seq;
    self->seq = seq + 1;
    PyObject *when_obj = PyLong_FromLongLong(when);
    PyObject *seq_obj = PyLong_FromLongLong(seq);
    PyObject *item = NULL;
    if (when_obj != NULL && seq_obj != NULL)
        item = PyTuple_Pack(3, when_obj, seq_obj, entry);
    Py_XDECREF(when_obj);
    Py_XDECREF(seq_obj);
    if (item == NULL)
        return -1;
    int rc = heap_push(self->overflow, item);
    Py_DECREF(item);
    return rc;
}

static int
core_post_call(WheelCore *self, long long when, PyObject *callback,
               PyObject *args)
{
    PyObject *entry = PyTuple_Pack(2, callback, args);
    if (entry == NULL)
        return -1;
    int rc = core_post_entry(self, when, entry);
    Py_DECREF(entry);
    return rc;
}

/* Engine.post_late_at's body for an int `when` >= _now. */
static int
core_post_late(WheelCore *self, long long when, PyObject *callback,
               PyObject *args)
{
    if (when >= self->horizon) {
        PyErr_Format(g_sim_error ? g_sim_error : PyExc_RuntimeError,
                     "late post at cycle %lld is beyond the wheel horizon "
                     "%lld; late entries must be near-term",
                     when, self->horizon);
        return -1;
    }
    PyObject *entry = PyTuple_Pack(2, callback, args);
    if (entry == NULL)
        return -1;
    PyObject *bucket =
        PyList_GET_ITEM(self->wheel_late, (Py_ssize_t)(when & WHEEL_MASK));
    if (!PyList_Check(bucket)) {
        Py_DECREF(entry);
        PyErr_SetString(PyExc_TypeError, "late bucket is not a list");
        return -1;
    }
    int rc = PyList_Append(bucket, entry);
    Py_DECREF(entry);
    if (rc < 0)
        return -1;
    self->wheel_count += 1;
    return 0;
}

/* ---- pacer: Pacer._release_head(token) + the _release_now drain ---- */

static int
kind_pacer_release_head(WheelCore *self, PyObject *owner, PyObject *cb,
                        PyObject *args)
{
    if (PyTuple_GET_SIZE(args) != 1 ||
        !PyLong_CheckExact(PyTuple_GET_ITEM(args, 0)))
        return 0;
    long long token;
    if (ll_from(PyTuple_GET_ITEM(args, 0), &token) < 0)
        return -1;
    if (owner_shadows(owner, g_shadow_pacer, g_shadow_pacer_n))
        return 0;
    /* decline-before-mutation: the blocked queue must be an exact deque
     * (popleft below is a concrete method call on it) */
    PyObject *blocked = fast_getattr(owner, s_blocked);
    if (blocked == NULL) {
        PyErr_Clear();
        return 0;
    }
    if ((PyObject *)Py_TYPE(blocked) != g_cls_deque) {
        Py_DECREF(blocked);
        return 0;
    }
    long long release_token;
    if (get_ll_attr(owner, s_release_token, &release_token) < 0) {
        Py_DECREF(blocked);
        PyErr_Clear();
        return 0;
    }
    if (token != release_token) {
        Py_DECREF(blocked);
        return 1; /* superseded: a handled no-op, exactly like pure */
    }
    /* _release_now: locals bound exactly where the pure kernel binds */
    long long den, period, burst;
    if (get_ll_attr(owner, s_den, &den) < 0 ||
        get_ll_attr(owner, s_period_num, &period) < 0 ||
        get_ll_attr(owner, s_burst, &burst) < 0)
        goto fail;
    long long burst_span = burst * period;
    long long now_scaled = self->now * den;
    for (;;) {
        Py_ssize_t n = PyObject_Size(blocked);
        if (n < 0)
            goto fail;
        if (n == 0)
            break;
        /* _cnext_scaled is re-read per iteration: release() can
         * re-enter charge/uncharge */
        long long cnext;
        if (get_ll_attr(owner, s_cnext_scaled, &cnext) < 0)
            goto fail;
        if (cnext > now_scaled)
            break;
        PyObject *head = PyObject_CallMethodObjArgs(blocked, s_popleft, NULL);
        if (head == NULL)
            goto fail;
        if (!PyTuple_Check(head) || PyTuple_GET_SIZE(head) != 2) {
            Py_DECREF(head);
            PyErr_SetString(PyExc_TypeError,
                            "pacer blocked entry is not (req, release)");
            goto fail;
        }
        PyObject *release = PyTuple_GET_ITEM(head, 1);
        Py_INCREF(release);
        Py_DECREF(head);
        long long floor_v = now_scaled - burst_span;
        if (cnext < floor_v)
            cnext = floor_v;
        if (set_ll_attr(owner, s_cnext_scaled, cnext + period) < 0 ||
            add_ll_attr(owner, s_released, 1) < 0) {
            Py_DECREF(release);
            goto fail;
        }
        PyObject *result = PyObject_CallNoArgs(release);
        Py_DECREF(release);
        if (result == NULL)
            goto fail;
        Py_DECREF(result);
    }
    {
        Py_ssize_t n = PyObject_Size(blocked);
        if (n < 0)
            goto fail;
        if (n > 0) {
            long long next_token;
            if (get_ll_attr(owner, s_release_token, &next_token) < 0)
                goto fail;
            next_token += 1;
            if (set_ll_attr(owner, s_release_token, next_token) < 0)
                goto fail;
            /* _release_time(): max(engine._now, ceil(cnext / den)) */
            long long num;
            if (get_ll_attr(owner, s_cnext_scaled, &num) < 0)
                goto fail;
            long long when =
                num >= 0 ? (num + den - 1) / den : -((-num) / den);
            if (when < self->now)
                when = self->now;
            PyObject *token_obj = PyLong_FromLongLong(next_token);
            if (token_obj == NULL)
                goto fail;
            PyObject *rearm_args = PyTuple_Pack(1, token_obj);
            Py_DECREF(token_obj);
            if (rearm_args == NULL)
                goto fail;
            /* re-arm with the dispatched bound method: same callable the
             * pure path would rebuild from self._release_head */
            int rc = core_post_call(self, when, cb, rearm_args);
            Py_DECREF(rearm_args);
            if (rc < 0)
                goto fail;
        }
    }
    Py_DECREF(blocked);
    return 1;
fail:
    Py_DECREF(blocked);
    return -1;
}

/* ---- stats: Stats.record_completion, with a Python fallback ------- */

/* Mirror of Stats.record_completion(req).  Falls back to calling the
 * Python method (not declining the whole event) when the Stats object
 * is subclassed, latency sampling is on, or a container is not the
 * exact type the transcription indexes — record_completion is an
 * internal call inside _retire, so delegating it keeps the enclosing
 * native handler on the fast path. */
static int
stats_record_completion(PyObject *stats, PyObject *req)
{
    if ((PyObject *)Py_TYPE(stats) != g_cls_stats)
        return call_1(stats, s_record_completion, req);
    int sampling = truthy_attr(stats, s_sample_latencies);
    if (sampling < 0)
        return -1;
    if (sampling)
        return call_1(stats, s_record_completion, req);
    PyObject *classes = fast_getattr(stats, s_classes);
    if (classes == NULL)
        return -1;
    PyObject *epoch = fast_getattr(stats, s_epoch_bytes);
    if (epoch == NULL) {
        Py_DECREF(classes);
        return -1;
    }
    if (!PyDict_CheckExact(classes) || !PyDict_CheckExact(epoch)) {
        Py_DECREF(classes);
        Py_DECREF(epoch);
        return call_1(stats, s_record_completion, req);
    }
    PyObject *qos_id = NULL, *cls = NULL;
    qos_id = PyObject_GetAttr(req, s_qos_id);
    if (qos_id == NULL)
        goto fail;
    cls = PyDict_GetItemWithError(classes, qos_id);
    if (cls == NULL) {
        if (PyErr_Occurred())
            goto fail;
        cls = PyObject_CallFunctionObjArgs(g_cls_class_stats, qos_id, NULL);
        if (cls == NULL)
            goto fail;
        if (PyDict_SetItem(classes, qos_id, cls) < 0)
            goto fail;
    } else {
        Py_INCREF(cls);
        if ((PyObject *)Py_TYPE(cls) != g_cls_class_stats) {
            /* subclassed per-class stats: let Python handle everything */
            Py_DECREF(cls);
            Py_DECREF(classes);
            Py_DECREF(epoch);
            Py_DECREF(qos_id);
            return call_1(stats, s_record_completion, req);
        }
    }
    long long size;
    if (get_ll_attr(req, s_size, &size) < 0)
        goto fail;
    int is_read = truthy_attr(req, s_is_read);
    if (is_read < 0)
        goto fail;
    if (is_read) {
        long long completed, created;
        if (add_ll_attr(cls, s_bytes_read, size) < 0 ||
            add_ll_attr(cls, s_reads_completed, 1) < 0 ||
            get_ll_attr(req, s_completed_at, &completed) < 0 ||
            get_ll_attr(req, s_created_at, &created) < 0)
            goto fail;
        long long latency = completed - created;
        long long latency_max;
        if (add_ll_attr(cls, s_read_latency_sum, latency) < 0 ||
            get_ll_attr(cls, s_read_latency_max, &latency_max) < 0)
            goto fail;
        if (latency > latency_max &&
            set_ll_attr(cls, s_read_latency_max, latency) < 0)
            goto fail;
        long long released, arrived, issued;
        if (get_ll_attr(req, s_released_at, &released) < 0 ||
            get_ll_attr(req, s_arrived_mc_at, &arrived) < 0 ||
            get_ll_attr(req, s_issued_at, &issued) < 0)
            goto fail;
        if (released >= 0 && arrived >= 0 && issued >= 0) {
            if (add_ll_attr(cls, s_reads_attributed, 1) < 0 ||
                add_ll_attr(cls, s_stage_pacer_sum, released - created) < 0 ||
                add_ll_attr(cls, s_stage_noc_sum, arrived - released) < 0 ||
                add_ll_attr(cls, s_stage_queue_sum, issued - arrived) < 0 ||
                add_ll_attr(cls, s_stage_service_sum,
                            completed - issued) < 0)
                goto fail;
        } else if (add_ll_attr(cls, s_reads_unattributed, 1) < 0) {
            goto fail;
        }
    } else {
        if (add_ll_attr(cls, s_bytes_written, size) < 0 ||
            add_ll_attr(cls, s_writes_completed, 1) < 0)
            goto fail;
    }
    {
        long long base = 0;
        PyObject *prior = PyDict_GetItemWithError(epoch, qos_id);
        if (prior == NULL) {
            if (PyErr_Occurred())
                goto fail;
        } else if (ll_from(prior, &base) < 0) {
            goto fail;
        }
        PyObject *total = PyLong_FromLongLong(base + size);
        if (total == NULL)
            goto fail;
        int rc = PyDict_SetItem(epoch, qos_id, total);
        Py_DECREF(total);
        if (rc < 0)
            goto fail;
    }
    Py_DECREF(cls);
    Py_DECREF(classes);
    Py_DECREF(epoch);
    Py_DECREF(qos_id);
    return 0;
fail:
    Py_XDECREF(cls);
    Py_DECREF(classes);
    Py_DECREF(epoch);
    Py_XDECREF(qos_id);
    return -1;
}

/* ---- controller: the _run_pass/_issue_ready/_complete* family ----- */

/* Vetted controller containers, fetched once per handled event.  All
 * refs owned; ctrl_state_clear releases them. */
typedef struct {
    PyObject *read_queue;
    PyObject *write_queue;
    PyObject *bank_busy;
    PyObject *busy_times;
    PyObject *space_listeners;
    PyObject *banks;
    PyObject *bus;
    PyObject *uniform_prep; /* None or exact int */
    PyObject *fused;        /* None or exact dict */
} CtrlState;

static void
ctrl_state_clear(CtrlState *st)
{
    Py_CLEAR(st->read_queue);
    Py_CLEAR(st->write_queue);
    Py_CLEAR(st->bank_busy);
    Py_CLEAR(st->busy_times);
    Py_CLEAR(st->space_listeners);
    Py_CLEAR(st->banks);
    Py_CLEAR(st->bus);
    Py_CLEAR(st->uniform_prep);
    Py_CLEAR(st->fused);
}

/* 1 = state has the exact shapes the handlers index, 0 = decline
 * (fall back to Python before anything mutated), -1 never raises. */
static int
ctrl_preflight(PyObject *owner, CtrlState *st)
{
    memset(st, 0, sizeof(*st));
#define NEED_EXACT_LIST(slot, sym)                                        \
    do {                                                                  \
        st->slot = fast_getattr(owner, sym);                          \
        if (st->slot == NULL) {                                           \
            PyErr_Clear();                                                \
            goto decline;                                                 \
        }                                                                 \
        if (!PyList_CheckExact(st->slot))                                 \
            goto decline;                                                 \
    } while (0)
    NEED_EXACT_LIST(read_queue, s_read_queue);
    NEED_EXACT_LIST(write_queue, s_write_queue);
    NEED_EXACT_LIST(bank_busy, s_bank_busy);
    NEED_EXACT_LIST(busy_times, s_busy_times);
    NEED_EXACT_LIST(space_listeners, s_space_listeners);
    NEED_EXACT_LIST(banks, s_banks);
#undef NEED_EXACT_LIST
    /* banks are NOT scanned here: ctrl_issue checks the one picked
     * bank's exact class and delegates exotic banks to the Python
     * _issue method, so an O(banks) vet per pass is unnecessary. */
    st->bus = fast_getattr(owner, s_bus);
    if (st->bus == NULL) {
        PyErr_Clear();
        goto decline;
    }
    if ((PyObject *)Py_TYPE(st->bus) != g_cls_databus)
        goto decline;
    st->uniform_prep = fast_getattr(owner, s_uniform_prep);
    if (st->uniform_prep == NULL) {
        PyErr_Clear();
        goto decline;
    }
    if (st->uniform_prep != Py_None &&
        !PyLong_CheckExact(st->uniform_prep))
        goto decline;
    st->fused = fast_getattr(owner, s_fused);
    if (st->fused == NULL) {
        PyErr_Clear();
        goto decline;
    }
    if (st->fused != Py_None && !PyDict_CheckExact(st->fused))
        goto decline;
    return 1;
decline:
    ctrl_state_clear(st);
    return 0;
}

/* try_enqueue only ever touches the two request queues, so its vetting
 * is just those (the full preflight would scan seven containers per
 * admitted request for nothing). */
static int
ctrl_preflight_queues(PyObject *owner, CtrlState *st)
{
    memset(st, 0, sizeof(*st));
    st->read_queue = fast_getattr(owner, s_read_queue);
    if (st->read_queue == NULL) {
        PyErr_Clear();
        return 0;
    }
    st->write_queue = fast_getattr(owner, s_write_queue);
    if (st->write_queue == NULL) {
        PyErr_Clear();
        goto decline;
    }
    if (!PyList_CheckExact(st->read_queue) ||
        !PyList_CheckExact(st->write_queue))
        goto decline;
    return 1;
decline:
    ctrl_state_clear(st);
    return 0;
}

/* The arm tail shared by _request_pass and _schedule_wakeup: post
 * (self._run_pass, (token,)) at `when` (wheel insert or overflow). */
static int
ctrl_arm_pass(WheelCore *self, PyObject *owner, long long when,
              long long token)
{
    PyObject *run_pass = g_fn_run_pass != NULL
                             ? PyMethod_New(g_fn_run_pass, owner)
                             : PyObject_GetAttr(owner, s_run_pass_name);
    if (run_pass == NULL)
        return -1;
    PyObject *token_obj = PyLong_FromLongLong(token);
    if (token_obj == NULL) {
        Py_DECREF(run_pass);
        return -1;
    }
    PyObject *args = PyTuple_Pack(1, token_obj);
    Py_DECREF(token_obj);
    if (args == NULL) {
        Py_DECREF(run_pass);
        return -1;
    }
    int rc = core_post_call(self, when, run_pass, args);
    Py_DECREF(args);
    Py_DECREF(run_pass);
    return rc;
}

/* MemoryController._request_pass(when): coalesce to the earliest pass */
static int
ctrl_request_pass(WheelCore *self, PyObject *owner, long long when)
{
    PyObject *pass_at = fast_getattr(owner, s_pass_at);
    if (pass_at == NULL)
        return -1;
    if (pass_at != Py_None) {
        long long armed;
        int rc = ll_from(pass_at, &armed);
        Py_DECREF(pass_at);
        if (rc < 0)
            return -1;
        if (armed <= when)
            return 0;
    } else {
        Py_DECREF(pass_at);
    }
    if (set_ll_attr(owner, s_pass_at, when) < 0)
        return -1;
    long long token;
    if (get_ll_attr(owner, s_pass_token, &token) < 0)
        return -1;
    token += 1;
    if (set_ll_attr(owner, s_pass_token, token) < 0)
        return -1;
    return ctrl_arm_pass(self, owner, when, token);
}

/* defined in the System section / after the kind table */
static int sys_on_mc_space_native(WheelCore *self, PyObject *owner,
                                  PyObject *mc_id_obj, long long mc_id);
static void kind_count_sync_hit(int idx);
#define KIND_IDX_ON_MC_SPACE 8
#define KIND_IDX_POLICY_ON_ACCEPT 9
#define KIND_IDX_POLICY_PICK 10

/* MemoryController._notify_space(): synchronous listener fan-out.  A
 * listener that is the registered System._on_mc_space bound to the
 * exact System on this engine runs natively; anything else gets the
 * ordinary Python call. */
static int
ctrl_notify_space(WheelCore *self, PyObject *owner, CtrlState *st)
{
    PyObject *mc_id = fast_getattr(owner, s_mc_id);
    if (mc_id == NULL)
        return -1;
    long long mc_ll = -1;
    int mc_ok = PyLong_CheckExact(mc_id) && ll_from(mc_id, &mc_ll) == 0;
    if (!mc_ok)
        PyErr_Clear();
    /* size re-read per step, like a list iterator over a live list */
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(st->space_listeners); i++) {
        PyObject *listener = PyList_GET_ITEM(st->space_listeners, i);
        if (mc_ok && g_fn_on_mc_space != NULL && PyMethod_Check(listener) &&
            PyMethod_GET_FUNCTION(listener) == g_fn_on_mc_space) {
            PyObject *sysobj = PyMethod_GET_SELF(listener);
            if (sysobj != NULL &&
                (PyObject *)Py_TYPE(sysobj) == g_cls_system &&
                inst_get(sysobj, s_engine_pub) == (PyObject *)self) {
                Py_INCREF(sysobj);
                int rc = sys_on_mc_space_native(self, sysobj, mc_id, mc_ll);
                Py_DECREF(sysobj);
                if (rc < 0) {
                    Py_DECREF(mc_id);
                    return -1;
                }
                if (rc == 1) {
                    kind_count_sync_hit(KIND_IDX_ON_MC_SPACE);
                    continue;
                }
                /* rc == 0: shapes were off, fall through to Python */
            }
        }
        Py_INCREF(listener);
        PyObject *result =
            PyObject_CallFunctionObjArgs(listener, mc_id, NULL);
        Py_DECREF(listener);
        if (result == NULL) {
            Py_DECREF(mc_id);
            return -1;
        }
        Py_DECREF(result);
    }
    Py_DECREF(mc_id);
    return 0;
}

/* ---- PABST priority arbiter (core/arbiter.py), mirrored for the
 * exact PriorityArbiter class.  These are synchronous policy calls,
 * not wheel events; the C call sites recognize the exact class and
 * transcribe, falling back to the Python methods otherwise. ------- */

/* schedulers.oldest_first: min by (arrived_mc_at, req_id).  Returns a
 * borrowed ref; *ok = 0 means a shape surprise (caller falls back). */
static PyObject *
arb_oldest_first(PyObject *cands, int *ok)
{
    Py_ssize_t n = PyList_GET_SIZE(cands);
    PyObject *best = PyList_GET_ITEM(cands, 0);
    long long best_arrived, best_id;
    if (get_ll_attr(best, s_arrived_mc_at, &best_arrived) < 0 ||
        get_ll_attr(best, s_req_id, &best_id) < 0) {
        PyErr_Clear();
        *ok = 0;
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *req = PyList_GET_ITEM(cands, i);
        long long arrived, req_id;
        if (get_ll_attr(req, s_arrived_mc_at, &arrived) < 0 ||
            get_ll_attr(req, s_req_id, &req_id) < 0) {
            PyErr_Clear();
            *ok = 0;
            return NULL;
        }
        if (arrived > best_arrived)
            continue;
        if (arrived == best_arrived && req_id >= best_id)
            continue;
        best = req;
        best_arrived = arrived;
        best_id = req_id;
    }
    *ok = 1;
    return best;
}

/* arbiter._earliest_deadline: min by (virtual_deadline, arrived_mc_at,
 * req_id), same contract as arb_oldest_first. */
static PyObject *
arb_earliest_deadline(PyObject *cands, int *ok)
{
    Py_ssize_t n = PyList_GET_SIZE(cands);
    PyObject *best = PyList_GET_ITEM(cands, 0);
    long long best_deadline, best_arrived, best_id;
    if (get_ll_attr(best, s_virtual_deadline, &best_deadline) < 0 ||
        get_ll_attr(best, s_arrived_mc_at, &best_arrived) < 0 ||
        get_ll_attr(best, s_req_id, &best_id) < 0) {
        PyErr_Clear();
        *ok = 0;
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *req = PyList_GET_ITEM(cands, i);
        long long deadline, arrived, req_id;
        if (get_ll_attr(req, s_virtual_deadline, &deadline) < 0 ||
            get_ll_attr(req, s_arrived_mc_at, &arrived) < 0 ||
            get_ll_attr(req, s_req_id, &req_id) < 0) {
            PyErr_Clear();
            *ok = 0;
            return NULL;
        }
        if (deadline > best_deadline)
            continue;
        if (deadline == best_deadline) {
            if (arrived > best_arrived)
                continue;
            if (arrived == best_arrived && req_id >= best_id)
                continue;
        }
        best = req;
        best_deadline = deadline;
        best_arrived = arrived;
        best_id = req_id;
    }
    *ok = 1;
    return best;
}

/* PriorityArbiter.pick(candidates, banks, now): 1 = picked (*out new
 * ref), 0 = not attempted (caller calls the Python method), -1 error.
 * Only the final _last_picked_deadline update mutates, so every
 * earlier surprise can still fall back. */
static int
arb_pick_native(PyObject *policy, PyObject *pool, PyObject *banks,
                PyObject **out)
{
    if (owner_shadows(policy, g_shadow_arb, g_shadow_arb_n))
        return 0;
    if (!PyList_CheckExact(pool) || PyList_GET_SIZE(pool) == 0)
        return 0;
    PyObject *first = PyList_GET_ITEM(pool, 0);
    int is_read = truthy_attr(first, s_is_read);
    if (is_read < 0) {
        PyErr_Clear();
        return 0;
    }
    int ok;
    if (!is_read) {
        /* writes: arrival order, no arbiter state touched */
        PyObject *best = arb_oldest_first(pool, &ok);
        if (!ok)
            return 0;
        Py_INCREF(best);
        *out = best;
        return 1;
    }
    int row_hits_first = truthy_attr(policy, s_row_hits_first);
    if (row_hits_first < 0) {
        PyErr_Clear();
        return 0;
    }
    if (row_hits_first) {
        if (!PyList_CheckExact(banks) || PyList_GET_SIZE(banks) == 0)
            return 0;
        int open_page =
            truthy_attr(PyList_GET_ITEM(banks, 0), s_open_page);
        if (open_page < 0) {
            PyErr_Clear();
            return 0;
        }
        if (open_page)
            return 0; /* open-page row-hit scan: Python handles it */
    }
    PyObject *best;
    if (PyList_GET_SIZE(pool) > 1) {
        best = arb_earliest_deadline(pool, &ok);
        if (!ok)
            return 0;
    } else {
        best = first;
    }
    long long deadline, last;
    if (get_ll_attr(best, s_virtual_deadline, &deadline) < 0 ||
        get_ll_attr(policy, s_last_picked_deadline, &last) < 0) {
        PyErr_Clear();
        return 0;
    }
    if (deadline > last &&
        set_ll_attr(policy, s_last_picked_deadline, deadline) < 0)
        return -1;
    Py_INCREF(best);
    *out = best;
    return 1;
}

/* PriorityArbiter.on_accept(req, now): 1 = done, 0 = not attempted,
 * -1 = error.  Vetting (registry/_classes/_clocks shapes) completes
 * before the first mutation. */
static int
arb_on_accept_native(PyObject *policy, PyObject *req)
{
    if (owner_shadows(policy, g_shadow_arb, g_shadow_arb_n))
        return 0;
    int is_read = truthy_attr(req, s_is_read);
    if (is_read < 0) {
        PyErr_Clear();
        return 0;
    }
    if (!is_read)
        return 1; /* pure returns immediately for writes */
    PyObject *registry = fast_getattr(policy, s_registry);
    if (registry == NULL) {
        PyErr_Clear();
        return 0;
    }
    PyObject *classes = fast_getattr(registry, s_qos_classes);
    Py_DECREF(registry);
    if (classes == NULL) {
        PyErr_Clear();
        return 0;
    }
    PyObject *clocks = fast_getattr(policy, s_clocks);
    if (clocks == NULL) {
        PyErr_Clear();
        Py_DECREF(classes);
        return 0;
    }
    if (!PyDict_CheckExact(classes) || !PyDict_CheckExact(clocks))
        goto not_attempted;
    {
        PyObject *qos_id = PyObject_GetAttr(req, s_qos_id);
        if (qos_id == NULL)
            goto fail;
        PyObject *entry = PyDict_GetItemWithError(classes, qos_id);
        if (entry == NULL) {
            if (PyErr_Occurred()) {
                Py_DECREF(qos_id);
                goto fail;
            }
            /* mirror QoSRegistry.get's message exactly */
            PyErr_Format(PyExc_KeyError, "QoS class %S is not defined",
                         qos_id);
            Py_DECREF(qos_id);
            goto fail;
        }
        long long stride;
        if (get_ll_attr(entry, s_stride, &stride) < 0) {
            PyErr_Clear();
            Py_DECREF(qos_id);
            goto not_attempted;
        }
        long long clock = 0;
        PyObject *current = PyDict_GetItemWithError(clocks, qos_id);
        if (current == NULL && PyErr_Occurred()) {
            Py_DECREF(qos_id);
            goto fail;
        }
        if (current != NULL && ll_from(current, &clock) < 0) {
            PyErr_Clear();
            Py_DECREF(qos_id);
            goto not_attempted;
        }
        clock += stride;
        long long last, slack;
        if (get_ll_attr(policy, s_last_picked_deadline, &last) < 0 ||
            get_ll_attr(policy, s_slack, &slack) < 0) {
            PyErr_Clear();
            Py_DECREF(qos_id);
            goto not_attempted;
        }
        int capped = clock < last - slack;
        if (capped) {
            clock = last - slack;
            if (add_ll_attr(policy, s_capped_deadlines, 1) < 0) {
                Py_DECREF(qos_id);
                goto fail;
            }
        }
        PyObject *boxed = PyLong_FromLongLong(clock);
        if (boxed == NULL) {
            Py_DECREF(qos_id);
            goto fail;
        }
        int rc = PyDict_SetItem(clocks, qos_id, boxed) < 0 ||
                 PyObject_SetAttr(req, s_virtual_deadline, boxed) < 0;
        Py_DECREF(boxed);
        Py_DECREF(qos_id);
        if (rc)
            goto fail;
    }
    Py_DECREF(classes);
    Py_DECREF(clocks);
    return 1;
not_attempted:
    Py_DECREF(classes);
    Py_DECREF(clocks);
    return 0;
fail:
    Py_DECREF(classes);
    Py_DECREF(clocks);
    return -1;
}

/* MemoryController._schedule_wakeup(now): re-arm at the next bank-free
 * or bus-gate-open time. */
static int
ctrl_schedule_wakeup(WheelCore *self, PyObject *owner, CtrlState *st)
{
    if (PyList_GET_SIZE(st->read_queue) == 0 &&
        PyList_GET_SIZE(st->write_queue) == 0)
        return 0;
    long long now = self->now;
    PyObject *times = st->busy_times;
    if (PyList_GET_SIZE(times)) {
        Py_ssize_t cut = bisect_right_ll(times, now);
        if (cut < 0)
            return -1;
        if (cut && PyList_SetSlice(times, 0, cut, NULL) < 0)
            return -1;
    }
    long long wake = FAR_LL;
    if (PyList_GET_SIZE(times)) {
        if (ll_from(PyList_GET_ITEM(times, 0), &wake) < 0)
            return -1;
    }
    long long free_at, min_prep;
    if (get_ll_attr(st->bus, s_free_at, &free_at) < 0 ||
        get_ll_attr(owner, s_min_prep, &min_prep) < 0)
        return -1;
    long long bus_gate = free_at - min_prep;
    if (now < bus_gate && bus_gate < wake)
        wake = bus_gate;
    if (wake == FAR_LL)
        return 0;
    /* _run_pass cleared _pass_at, so arm unconditionally (inlined
     * _request_pass without the coalescing early-out) */
    if (set_ll_attr(owner, s_pass_at, wake) < 0)
        return -1;
    long long token;
    if (get_ll_attr(owner, s_pass_token, &token) < 0)
        return -1;
    token += 1;
    if (set_ll_attr(owner, s_pass_token, token) < 0)
        return -1;
    return ctrl_arm_pass(self, owner, wake, token);
}

/* controller.try_enqueue(req) through the ordinary Python call */
static int
try_enqueue_python(PyObject *controller, PyObject *req, int *accepted)
{
    PyObject *result =
        PyObject_CallMethodObjArgs(controller, s_try_enqueue, req, NULL);
    if (result == NULL)
        return -1;
    int truth = PyObject_IsTrue(result);
    Py_DECREF(result);
    if (truth < 0)
        return -1;
    *accepted = truth;
    return 0;
}

/* Native transcription of MemoryController.try_enqueue(req).  The
 * caller has verified the controller's exact class and engine; the
 * CtrlState is this controller's own vetted preflight. */
static int
ctrl_try_enqueue_native(WheelCore *self, PyObject *owner, CtrlState *st,
                        PyObject *req, int *accepted)
{
    long long now = self->now;
    int is_write = truthy_attr(req, s_is_memory_write);
    if (is_write < 0)
        return -1;
    PyObject *target;
    if (is_write) {
        long long capacity;
        if (get_ll_attr(owner, s_write_capacity, &capacity) < 0)
            return -1;
        if (PyList_GET_SIZE(st->write_queue) >= capacity) {
            PyObject *stats = fast_getattr(owner, s_stats_attr);
            if (stats == NULL)
                return -1;
            int rc = add_ll_attr(owner, s_rejects, 1) < 0 ||
                     add_ll_attr(stats, s_requests_rejected, 1) < 0;
            Py_DECREF(stats);
            if (rc)
                return -1;
            *accepted = 0;
            return 0;
        }
        target = st->write_queue;
        if (add_ll_attr(owner, s_writes_accepted, 1) < 0)
            return -1;
    } else {
        long long capacity;
        if (get_ll_attr(owner, s_read_capacity, &capacity) < 0)
            return -1;
        if (PyList_GET_SIZE(st->read_queue) >= capacity) {
            PyObject *stats = fast_getattr(owner, s_stats_attr);
            if (stats == NULL)
                return -1;
            int rc = add_ll_attr(owner, s_rejects, 1) < 0 ||
                     add_ll_attr(stats, s_requests_rejected, 1) < 0;
            Py_DECREF(stats);
            if (rc)
                return -1;
            *accepted = 0;
            return 0;
        }
        target = st->read_queue;
        /* inlined _update_occupancy() before the append below */
        long long last;
        if (get_ll_attr(owner, s_occ_last_update, &last) < 0)
            return -1;
        if (add_ll_attr(owner, s_occ_integral,
                        PyList_GET_SIZE(target) * (now - last)) < 0 ||
            set_ll_attr(owner, s_occ_last_update, now) < 0 ||
            add_ll_attr(owner, s_reads_accepted, 1) < 0)
            return -1;
    }
    if (set_ll_attr(req, s_arrived_mc_at, now) < 0)
        return -1;
    {
        PyObject *mc_id = fast_getattr(owner, s_mc_id);
        if (mc_id == NULL)
            return -1;
        int rc = PyObject_SetAttr(req, s_mc_id, mc_id);
        Py_DECREF(mc_id);
        if (rc < 0)
            return -1;
    }
    long long bank_id;
    if (get_ll_attr(req, s_bank_id, &bank_id) < 0)
        return -1;
    if (bank_id < 0) {
        PyObject *map = fast_getattr(owner, s_map);
        if (map == NULL)
            return -1;
        PyObject *addr = PyObject_GetAttr(req, s_addr);
        if (addr == NULL) {
            Py_DECREF(map);
            return -1;
        }
        PyObject *decoded =
            PyObject_CallMethodObjArgs(map, s_decode, addr, NULL);
        Py_DECREF(addr);
        Py_DECREF(map);
        if (decoded == NULL)
            return -1;
        PyObject *fast = PySequence_Fast(
            decoded, "cannot unpack non-iterable address decode result");
        Py_DECREF(decoded);
        if (fast == NULL)
            return -1;
        if (PySequence_Fast_GET_SIZE(fast) != 4) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_ValueError,
                            "address decode did not yield "
                            "(mc, channel, bank, row)");
            return -1;
        }
        int rc = PyObject_SetAttr(req, s_bank_id,
                                  PySequence_Fast_GET_ITEM(fast, 2)) < 0 ||
                 PyObject_SetAttr(req, s_row_id,
                                  PySequence_Fast_GET_ITEM(fast, 3)) < 0;
        Py_DECREF(fast);
        if (rc)
            return -1;
    }
    if (PyList_Append(target, req) < 0)
        return -1;
    {
        PyObject *stats = fast_getattr(owner, s_stats_attr);
        if (stats == NULL)
            return -1;
        int rc = add_ll_attr(stats, s_requests_enqueued, 1);
        Py_DECREF(stats);
        if (rc < 0)
            return -1;
    }
    {
        PyObject *policy = fast_getattr(owner, s_policy);
        if (policy == NULL)
            return -1;
        int done = 0;
        if ((PyObject *)Py_TYPE(policy) == g_cls_arbiter) {
            done = arb_on_accept_native(policy, req);
            if (done < 0) {
                Py_DECREF(policy);
                return -1;
            }
            if (done)
                kind_count_sync_hit(KIND_IDX_POLICY_ON_ACCEPT);
        }
        if (!done) {
            PyObject *now_obj = PyLong_FromLongLong(now);
            if (now_obj == NULL) {
                Py_DECREF(policy);
                return -1;
            }
            PyObject *result = PyObject_CallMethodObjArgs(
                policy, s_on_accept, req, now_obj, NULL);
            Py_DECREF(now_obj);
            if (result == NULL) {
                Py_DECREF(policy);
                return -1;
            }
            Py_DECREF(result);
        }
        Py_DECREF(policy);
    }
    if (self->sanitizer != Py_None &&
        call_1(self->sanitizer, s_on_accept, req) < 0)
        return -1;
    if (self->tracer != Py_None &&
        call_1(self->tracer, s_arrived, req) < 0)
        return -1;
    /* inlined _note_arrival() */
    long long inflight;
    if (get_ll_attr(owner, s_inflight, &inflight) < 0)
        return -1;
    if (inflight == 0 && set_ll_attr(owner, s_active_since, now) < 0)
        return -1;
    if (set_ll_attr(owner, s_inflight, inflight + 1) < 0)
        return -1;
    if (ctrl_request_pass(self, owner, now) < 0)
        return -1;
    *accepted = 1;
    return 0;
}

/* try_enqueue on a controller reached from a System handler: native
 * when the controller is the exact registered class on this engine and
 * its state preflights clean, else the ordinary Python method call. */
static int
try_enqueue_any(WheelCore *self, PyObject *controller, PyObject *req,
                int *accepted)
{
    if ((PyObject *)Py_TYPE(controller) != g_cls_controller ||
        owner_shadows(controller, g_shadow_ctrl, g_shadow_ctrl_n))
        return try_enqueue_python(controller, req, accepted);
    PyObject *engine = fast_getattr(controller, s_engine_priv);
    if (engine == NULL) {
        PyErr_Clear();
        return try_enqueue_python(controller, req, accepted);
    }
    int ours = engine == (PyObject *)self;
    Py_DECREF(engine);
    if (!ours)
        return try_enqueue_python(controller, req, accepted);
    CtrlState st;
    int vetted = ctrl_preflight_queues(controller, &st);
    if (vetted < 0)
        return -1;
    if (!vetted)
        return try_enqueue_python(controller, req, accepted);
    int rc = ctrl_try_enqueue_native(self, controller, &st, req, accepted);
    ctrl_state_clear(&st);
    return rc;
}

/* MemoryController._issue(req, now): bus reserve, bank issue, stamps,
 * queue removal, and the completion (or fused-chain) post. */
static int
ctrl_issue(WheelCore *self, PyObject *owner, CtrlState *st, PyObject *req)
{
    long long now = self->now;
    long long bank_id;
    if (get_ll_attr(req, s_bank_id, &bank_id) < 0)
        return -1;
    if (bank_id < 0 || bank_id >= PyList_GET_SIZE(st->banks)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    PyObject *bank = PyList_GET_ITEM(st->banks, (Py_ssize_t)bank_id);
    if ((PyObject *)Py_TYPE(bank) != g_cls_bank) {
        /* exotic bank subclass: run this one issue through the Python
         * method — the exact code path pure executes — instead of the
         * Bank.issue transcription below */
        PyObject *now_obj = PyLong_FromLongLong(now);
        if (now_obj == NULL)
            return -1;
        PyObject *res = PyObject_CallMethodObjArgs(owner, s_issue_name,
                                                   req, now_obj, NULL);
        Py_DECREF(now_obj);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    PyObject *row_obj = PyObject_GetAttr(req, s_row_id);
    if (row_obj == NULL)
        return -1;
    long long prep;
    if (st->uniform_prep != Py_None) {
        if (ll_from(st->uniform_prep, &prep) < 0)
            goto fail_row;
    } else if (bank_prep_cycles(bank, row_obj, &prep) < 0) {
        goto fail_row;
    }
    /* inlined DataBus.reserve() */
    long long free_at, burst;
    if (get_ll_attr(st->bus, s_free_at, &free_at) < 0 ||
        get_ll_attr(st->bus, s_burst, &burst) < 0)
        goto fail_row;
    long long data_start = now + prep;
    if (data_start < free_at)
        data_start = free_at;
    long long data_end = data_start + burst;
    if (set_ll_attr(st->bus, s_free_at, data_end) < 0 ||
        add_ll_attr(st->bus, s_busy_cycles, burst) < 0 ||
        add_ll_attr(st->bus, s_transfers, 1) < 0)
        goto fail_row;
    /* Bank.issue(now, row, data_end) */
    long long busy_until;
    if (get_ll_attr(bank, s_busy_until, &busy_until) < 0)
        goto fail_row;
    if (now < busy_until) {
        long long bank_own_id;
        if (get_ll_attr(bank, s_bank_id, &bank_own_id) < 0)
            goto fail_row;
        PyErr_Format(PyExc_ValueError,
                     "bank %lld busy until %lld, now %lld",
                     bank_own_id, busy_until, now);
        goto fail_row;
    }
    if (add_ll_attr(bank, s_accesses, 1) < 0)
        goto fail_row;
    int open_page = truthy_attr(bank, s_open_page);
    if (open_page < 0)
        goto fail_row;
    if (open_page) {
        PyObject *open_row = PyObject_GetAttr(bank, s_open_row);
        if (open_row == NULL)
            goto fail_row;
        int hit = PyObject_RichCompareBool(open_row, row_obj, Py_EQ);
        Py_DECREF(open_row);
        if (hit < 0)
            goto fail_row;
        if (hit && add_ll_attr(bank, s_row_hits, 1) < 0)
            goto fail_row;
    }
    long long recovery;
    if (get_ll_attr(bank, s_recovery, &recovery) < 0)
        goto fail_row;
    long long bank_free = data_end + recovery;
    if (set_ll_attr(bank, s_busy_until, bank_free) < 0)
        goto fail_row;
    if (PyObject_SetAttr(bank, s_open_row,
                         open_page ? row_obj : Py_None) < 0)
        goto fail_row;
    /* _bank_busy[bank_id] = bank.busy_until; insort(_busy_times, ...) */
    if (bank_id >= PyList_GET_SIZE(st->bank_busy)) {
        PyErr_SetString(PyExc_IndexError,
                        "list assignment index out of range");
        goto fail_row;
    }
    {
        PyObject *boxed = PyLong_FromLongLong(bank_free);
        if (boxed == NULL)
            goto fail_row;
        if (PyList_SetItem(st->bank_busy, (Py_ssize_t)bank_id, boxed) < 0)
            goto fail_row;
    }
    {
        Py_ssize_t pos = bisect_right_ll(st->busy_times, bank_free);
        if (pos < 0)
            goto fail_row;
        PyObject *boxed = PyLong_FromLongLong(bank_free);
        if (boxed == NULL)
            goto fail_row;
        int rc = PyList_Insert(st->busy_times, pos, boxed);
        Py_DECREF(boxed);
        if (rc < 0)
            goto fail_row;
    }
    if (set_ll_attr(req, s_dispatched_at, now) < 0 ||
        set_ll_attr(req, s_issued_at, now) < 0)
        goto fail_row;
    if (self->sanitizer != Py_None &&
        call_1(self->sanitizer, s_on_issue, req) < 0)
        goto fail_row;
    if (self->tracer != Py_None &&
        call_1(self->tracer, s_issued, req) < 0)
        goto fail_row;
    {
        PyObject *stats = fast_getattr(owner, s_stats_attr);
        if (stats == NULL)
            goto fail_row;
        int rc = add_ll_attr(stats, s_bus_busy_cycles, burst);
        Py_DECREF(stats);
        if (rc < 0)
            goto fail_row;
    }
    int is_write = truthy_attr(req, s_is_memory_write);
    if (is_write < 0)
        goto fail_row;
    PyObject *queue;
    if (is_write) {
        queue = st->write_queue;
    } else {
        /* inlined _update_occupancy() before the removal below */
        long long last;
        if (get_ll_attr(owner, s_occ_last_update, &last) < 0)
            goto fail_row;
        if (add_ll_attr(owner, s_occ_integral,
                        PyList_GET_SIZE(st->read_queue) * (now - last)) < 0 ||
            set_ll_attr(owner, s_occ_last_update, now) < 0)
            goto fail_row;
        queue = st->read_queue;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(queue); i++) {
        if (PyList_GET_ITEM(queue, i) == req) {
            if (PyList_SetSlice(queue, i, i + 1, NULL) < 0)
                goto fail_row;
            break;
        }
    }
    int is_read = truthy_attr(req, s_is_read);
    if (is_read < 0)
        goto fail_row;
    if (is_read && st->fused != Py_None) {
        PyObject *core_id = PyObject_GetAttr(req, s_core_id);
        if (core_id == NULL)
            goto fail_row;
        PyObject *fused_val = PyDict_GetItemWithError(st->fused, core_id);
        Py_DECREF(core_id);
        if (fused_val == NULL && PyErr_Occurred())
            goto fail_row;
        if (fused_val != NULL) {
            /* engine.post_chain_at(data_end, self._complete_fused,
             * (req,), return_delay, self._respond_fn, (core, req)) */
            if (!PyTuple_Check(fused_val) ||
                PyTuple_GET_SIZE(fused_val) != 2) {
                PyErr_SetString(PyExc_TypeError,
                                "fused-read entry is not (core, delay)");
                goto fail_row;
            }
            PyObject *core = PyTuple_GET_ITEM(fused_val, 0);
            PyObject *delay_obj = PyTuple_GET_ITEM(fused_val, 1);
            long long delay;
            if (!PyLong_CheckExact(delay_obj) ||
                ll_from(delay_obj, &delay) < 0 || delay < 1) {
                PyErr_Clear();
                PyErr_Format(g_sim_error ? g_sim_error : PyExc_RuntimeError,
                             "chain link_delay must be a positive int "
                             "(got %R)", delay_obj);
                goto fail_row;
            }
            PyObject *cf =
                g_fn_complete_fused != NULL
                    ? PyMethod_New(g_fn_complete_fused, owner)
                    : PyObject_GetAttr(owner, s_complete_fused_name);
            PyObject *respond = fast_getattr(owner, s_respond_fn);
            PyObject *args1 = PyTuple_Pack(1, req);
            PyObject *args2 = PyTuple_Pack(2, core, req);
            PyObject *entry = NULL;
            if (cf != NULL && respond != NULL && args1 != NULL &&
                args2 != NULL)
                entry = PyList_New(5);
            if (entry == NULL) {
                Py_XDECREF(cf);
                Py_XDECREF(respond);
                Py_XDECREF(args1);
                Py_XDECREF(args2);
                goto fail_row;
            }
            PyList_SET_ITEM(entry, 0, cf);
            PyList_SET_ITEM(entry, 1, args1);
            Py_INCREF(delay_obj);
            PyList_SET_ITEM(entry, 2, delay_obj);
            PyList_SET_ITEM(entry, 3, respond);
            PyList_SET_ITEM(entry, 4, args2);
            int rc = core_post_entry(self, data_end, entry);
            Py_DECREF(entry);
            if (rc < 0)
                goto fail_row;
            Py_DECREF(row_obj);
            return 0;
        }
    }
    {
        PyObject *cb = g_fn_complete != NULL
                           ? PyMethod_New(g_fn_complete, owner)
                           : PyObject_GetAttr(owner, s_complete_name);
        if (cb == NULL)
            goto fail_row;
        PyObject *inner = PyTuple_Pack(1, req);
        if (inner == NULL) {
            Py_DECREF(cb);
            goto fail_row;
        }
        /* the wheel insert and engine.post_at(data_end, self._complete,
         * req) store the same (callback, (req,)) entry */
        int rc = core_post_call(self, data_end, cb, inner);
        Py_DECREF(inner);
        Py_DECREF(cb);
        if (rc < 0)
            goto fail_row;
    }
    Py_DECREF(row_obj);
    return 0;
fail_row:
    Py_DECREF(row_obj);
    return -1;
}

/* MemoryController._issue_ready(now): serve ready requests until
 * banks, bus, or queues run out.  Returns issued reads via *out. */
static int
ctrl_issue_ready(WheelCore *self, PyObject *owner, CtrlState *st,
                 long long *out)
{
    long long now = self->now;
    long long issued_reads = 0;
    int draining = truthy_attr(owner, s_draining_writes);
    if (draining < 0)
        return -1;
    long long free_at;
    if (get_ll_attr(st->bus, s_free_at, &free_at) < 0)
        return -1;
    long long bus_backlog = free_at - now;
    PyObject *now_obj = PyLong_FromLongLong(now);
    if (now_obj == NULL)
        return -1;
    PyObject *ready_reads = NULL, *ready_writes = NULL;
    ready_reads = PyList_GET_SIZE(st->read_queue)
        ? ready_scan_impl(st->read_queue, st->bank_busy, st->banks,
                          st->uniform_prep, bus_backlog, now)
        : PyList_New(0);
    if (ready_reads == NULL)
        goto fail;
    for (;;) {
        PyObject *pool;
        if (draining || PyList_GET_SIZE(ready_reads) == 0) {
            if (ready_writes == NULL) {
                ready_writes = PyList_GET_SIZE(st->write_queue)
                    ? ready_scan_impl(st->write_queue, st->bank_busy,
                                      st->banks, st->uniform_prep,
                                      bus_backlog, now)
                    : PyList_New(0);
                if (ready_writes == NULL)
                    goto fail;
            }
            pool = PyList_GET_SIZE(ready_writes) ? ready_writes
                                                 : ready_reads;
        } else {
            pool = ready_reads;
        }
        if (PyList_GET_SIZE(pool) == 0)
            break;
        /* self.policy re-read per pick, exactly like the pure loop */
        PyObject *policy = fast_getattr(owner, s_policy);
        if (policy == NULL)
            goto fail;
        PyObject *req = NULL;
        if ((PyObject *)Py_TYPE(policy) == g_cls_arbiter) {
            int picked = arb_pick_native(policy, pool, st->banks, &req);
            if (picked < 0) {
                Py_DECREF(policy);
                goto fail;
            }
            if (picked)
                kind_count_sync_hit(KIND_IDX_POLICY_PICK);
        }
        if (req == NULL)
            req = PyObject_CallMethodObjArgs(policy, s_pick, pool,
                                             st->banks, now_obj, NULL);
        Py_DECREF(policy);
        if (req == NULL)
            goto fail;
        if (ctrl_issue(self, owner, st, req) < 0) {
            Py_DECREF(req);
            goto fail;
        }
        int is_read = truthy_attr(req, s_is_read);
        if (is_read < 0) {
            Py_DECREF(req);
            goto fail;
        }
        if (is_read)
            issued_reads += 1;
        if (get_ll_attr(st->bus, s_free_at, &free_at) < 0) {
            Py_DECREF(req);
            goto fail;
        }
        bus_backlog = free_at - now;
        PyObject *kept = filter_ready_impl(ready_reads, req, st->banks,
                                           st->uniform_prep, bus_backlog);
        if (kept == NULL) {
            Py_DECREF(req);
            goto fail;
        }
        Py_SETREF(ready_reads, kept);
        if (ready_writes != NULL) {
            kept = filter_ready_impl(ready_writes, req, st->banks,
                                     st->uniform_prep, bus_backlog);
            if (kept == NULL) {
                Py_DECREF(req);
                goto fail;
            }
            Py_SETREF(ready_writes, kept);
        }
        Py_DECREF(req);
    }
    Py_DECREF(now_obj);
    Py_DECREF(ready_reads);
    Py_XDECREF(ready_writes);
    *out = issued_reads;
    return 0;
fail:
    Py_DECREF(now_obj);
    Py_XDECREF(ready_reads);
    Py_XDECREF(ready_writes);
    return -1;
}

/* kind: MemoryController._run_pass(token) */
static int
kind_mc_run_pass(WheelCore *self, PyObject *owner, PyObject *cb,
                 PyObject *args)
{
    (void)cb;
    if (PyTuple_GET_SIZE(args) != 1 ||
        !PyLong_CheckExact(PyTuple_GET_ITEM(args, 0)))
        return 0;
    long long token;
    if (ll_from(PyTuple_GET_ITEM(args, 0), &token) < 0)
        return -1;
    if (owner_shadows(owner, g_shadow_ctrl, g_shadow_ctrl_n))
        return 0;
    PyObject *pass_token = fast_getattr(owner, s_pass_token);
    if (pass_token == NULL) {
        PyErr_Clear();
        return 0;
    }
    if (!PyLong_CheckExact(pass_token)) {
        Py_DECREF(pass_token);
        return 0;
    }
    long long current;
    int rc = ll_from(pass_token, &current);
    Py_DECREF(pass_token);
    if (rc < 0)
        return -1;
    if (token != current)
        return 1; /* superseded: a handled no-op, exactly like pure */
    /* Run the cheap early phases before the full container preflight:
     * the mutations here (_pass_at, draining_writes) are idempotent, so
     * a decline below still falls back to the Python body safely — it
     * recomputes them to the same values.  This skips ~7 container
     * vettings on every drained pass (the common case). */
    PyObject *read_queue = fast_getattr(owner, s_read_queue);
    if (read_queue == NULL) {
        PyErr_Clear();
        return 0;
    }
    PyObject *write_queue = fast_getattr(owner, s_write_queue);
    if (write_queue == NULL) {
        PyErr_Clear();
        Py_DECREF(read_queue);
        return 0;
    }
    if (!PyList_CheckExact(read_queue) ||
        !PyList_CheckExact(write_queue)) {
        Py_DECREF(read_queue);
        Py_DECREF(write_queue);
        return 0;
    }
    if (fast_setattr(owner, s_pass_at, Py_None) < 0)
        goto fail_queues;
    /* watermark-based write-drain switch (inlined _update_write_mode) */
    {
        int draining = truthy_attr(owner, s_draining_writes);
        if (draining < 0)
            goto fail_queues;
        Py_ssize_t backlog = PyList_GET_SIZE(write_queue);
        if (draining) {
            long long wm_low;
            if (get_ll_attr(owner, s_wm_low, &wm_low) < 0)
                goto fail_queues;
            if (backlog <= wm_low &&
                fast_setattr(owner, s_draining_writes, Py_False) < 0)
                goto fail_queues;
        } else {
            long long wm_high;
            if (get_ll_attr(owner, s_wm_high, &wm_high) < 0)
                goto fail_queues;
            if (backlog >= wm_high &&
                fast_setattr(owner, s_draining_writes, Py_True) < 0)
                goto fail_queues;
        }
    }
    if (PyList_GET_SIZE(read_queue) == 0 &&
        PyList_GET_SIZE(write_queue) == 0) {
        Py_DECREF(read_queue);
        Py_DECREF(write_queue);
        return 1; /* drained pass: skip issue/wakeup, exactly like pure */
    }
    Py_DECREF(read_queue);
    Py_DECREF(write_queue);
    CtrlState st;
    int vetted = ctrl_preflight(owner, &st);
    if (vetted <= 0)
        return vetted;
    long long issued_reads;
    if (ctrl_issue_ready(self, owner, &st, &issued_reads) < 0)
        goto fail;
    if (issued_reads && ctrl_notify_space(self, owner, &st) < 0)
        goto fail;
    if (ctrl_schedule_wakeup(self, owner, &st) < 0)
        goto fail;
    ctrl_state_clear(&st);
    return 1;
fail:
    ctrl_state_clear(&st);
    return -1;
fail_queues:
    Py_DECREF(read_queue);
    Py_DECREF(write_queue);
    return -1;
}

/* shared body of _complete / _complete_fused: _retire + re-arm */
static int
kind_mc_complete_common(WheelCore *self, PyObject *owner, PyObject *args,
                        int notify_read)
{
    if (PyTuple_GET_SIZE(args) != 1)
        return 0;
    if (owner_shadows(owner, g_shadow_ctrl, g_shadow_ctrl_n))
        return 0;
    PyObject *req = PyTuple_GET_ITEM(args, 0);
    long long now = self->now;
    /* _retire(req) */
    if (set_ll_attr(req, s_completed_at, now) < 0)
        return -1;
    if (self->sanitizer != Py_None &&
        call_1(self->sanitizer, s_on_complete, req) < 0)
        return -1;
    if (self->tracer != Py_None &&
        call_1(self->tracer, s_completed, req) < 0)
        return -1;
    {
        PyObject *stats = fast_getattr(owner, s_stats_attr);
        if (stats == NULL)
            return -1;
        int rc = stats_record_completion(stats, req);
        if (rc == 0) {
            /* inlined _note_retirement() */
            long long inflight;
            rc = get_ll_attr(owner, s_inflight, &inflight);
            if (rc == 0) {
                inflight -= 1;
                rc = set_ll_attr(owner, s_inflight, inflight);
                if (rc == 0 && inflight == 0) {
                    long long since;
                    rc = get_ll_attr(owner, s_active_since, &since);
                    if (rc == 0) {
                        long long delta = now - since;
                        rc = add_ll_attr(owner, s_active_cycles, delta);
                        if (rc == 0)
                            rc = add_ll_attr(stats, s_mc_active_cycles,
                                             delta);
                    }
                }
            }
        }
        Py_DECREF(stats);
        if (rc < 0)
            return -1;
    }
    if (notify_read) {
        int is_read = truthy_attr(req, s_is_read);
        if (is_read < 0)
            return -1;
        if (is_read) {
            PyObject *hook = fast_getattr(owner, s_on_read_complete);
            if (hook == NULL)
                return -1;
            if (hook != Py_None) {
                PyObject *result =
                    PyObject_CallFunctionObjArgs(hook, req, NULL);
                Py_DECREF(hook);
                if (result == NULL)
                    return -1;
                Py_DECREF(result);
            } else {
                Py_DECREF(hook);
            }
        }
    }
    if (ctrl_request_pass(self, owner, now) < 0)
        return -1;
    return 1;
}

/* kind: MemoryController._complete(req) */
static int
kind_mc_complete(WheelCore *self, PyObject *owner, PyObject *cb,
                 PyObject *args)
{
    (void)cb;
    return kind_mc_complete_common(self, owner, args, 1);
}

/* kind: MemoryController._complete_fused(req) */
static int
kind_mc_complete_fused(WheelCore *self, PyObject *owner, PyObject *cb,
                       PyObject *args)
{
    (void)cb;
    return kind_mc_complete_common(self, owner, args, 0);
}

/* ---- system: the NoC delivery / ingress-pump / response family ---- */

/* owner.<name>[mc_id] with the outer attr vetted as an exact list and
 * mc_id in range.  1 ok (*outer owned, *item borrowed), 0 decline. */
static int
sys_slot(PyObject *owner, PyObject *name, long long mc_id,
         PyObject **outer, PyObject **item)
{
    PyObject *seq = fast_getattr(owner, name);
    if (seq == NULL) {
        PyErr_Clear();
        return 0;
    }
    if (!PyList_CheckExact(seq) || mc_id < 0 ||
        mc_id >= PyList_GET_SIZE(seq)) {
        Py_DECREF(seq);
        return 0;
    }
    *outer = seq;
    *item = PyList_GET_ITEM(seq, (Py_ssize_t)mc_id);
    return 1;
}

/* kind: System._deliver(req) */
static int
kind_sys_deliver(WheelCore *self, PyObject *owner, PyObject *cb,
                 PyObject *args)
{
    (void)cb;
    if (PyTuple_GET_SIZE(args) != 1)
        return 0;
    if (owner_shadows(owner, g_shadow_system, g_shadow_system_n))
        return 0;
    PyObject *req = PyTuple_GET_ITEM(args, 0);
    PyObject *mc_id_obj = PyObject_GetAttr(req, s_mc_id);
    if (mc_id_obj == NULL) {
        PyErr_Clear();
        return 0;
    }
    if (!PyLong_CheckExact(mc_id_obj)) {
        Py_DECREF(mc_id_obj);
        return 0;
    }
    long long mc_id;
    if (ll_from(mc_id_obj, &mc_id) < 0) {
        Py_DECREF(mc_id_obj);
        return -1;
    }
    PyObject *arrivals = NULL, *buf = NULL;
    PyObject *armed_outer = NULL, *armed = NULL;
    int rc = sys_slot(owner, s_mc_arrivals, mc_id, &arrivals, &buf);
    if (rc <= 0)
        goto decline;
    if (!PyList_CheckExact(buf))
        goto decline;
    rc = sys_slot(owner, s_mc_pump_armed, mc_id, &armed_outer, &armed);
    if (rc <= 0)
        goto decline;
    if (PyList_Append(buf, req) < 0)
        goto fail;
    rc = PyObject_IsTrue(armed);
    if (rc < 0)
        goto fail;
    if (!rc) {
        Py_INCREF(Py_True);
        if (PyList_SetItem(armed_outer, (Py_ssize_t)mc_id, Py_True) < 0)
            goto fail;
        PyObject *pump = g_fn_pump_mc != NULL
                             ? PyMethod_New(g_fn_pump_mc, owner)
                             : PyObject_GetAttr(owner, s_pump_mc_name);
        if (pump == NULL)
            goto fail;
        PyObject *pargs = PyTuple_Pack(1, mc_id_obj);
        if (pargs == NULL) {
            Py_DECREF(pump);
            goto fail;
        }
        rc = core_post_late(self, self->now, pump, pargs);
        Py_DECREF(pargs);
        Py_DECREF(pump);
        if (rc < 0)
            goto fail;
    }
    Py_DECREF(armed_outer);
    Py_DECREF(arrivals);
    Py_DECREF(mc_id_obj);
    return 1;
decline:
    Py_XDECREF(armed_outer);
    Py_XDECREF(arrivals);
    Py_DECREF(mc_id_obj);
    return 0;
fail:
    Py_XDECREF(armed_outer);
    Py_XDECREF(arrivals);
    Py_DECREF(mc_id_obj);
    return -1;
}

/* System._on_mc_space(mc_id): set the space hint and arm a late pump.
 * Shared between the synchronous listener fan-out (ctrl_notify_space)
 * and the dispatch-path kind handler below.  1 = done, 0 = shapes off
 * (caller falls back to the Python method), -1 = error. */
static int
sys_on_mc_space_native(WheelCore *self, PyObject *owner,
                       PyObject *mc_id_obj, long long mc_id)
{
    PyObject *hint_outer = NULL, *hint = NULL;
    PyObject *armed_outer = NULL, *armed = NULL;
    if (owner_shadows(owner, g_shadow_system, g_shadow_system_n))
        return 0;
    int rc = sys_slot(owner, s_mc_space_hint, mc_id, &hint_outer, &hint);
    if (rc <= 0)
        return rc;
    rc = sys_slot(owner, s_mc_pump_armed, mc_id, &armed_outer, &armed);
    if (rc <= 0) {
        Py_DECREF(hint_outer);
        return rc;
    }
    Py_INCREF(Py_True);
    if (PyList_SetItem(hint_outer, (Py_ssize_t)mc_id, Py_True) < 0)
        goto fail;
    rc = PyObject_IsTrue(armed);
    if (rc < 0)
        goto fail;
    if (!rc) {
        Py_INCREF(Py_True);
        if (PyList_SetItem(armed_outer, (Py_ssize_t)mc_id, Py_True) < 0)
            goto fail;
        PyObject *pump = g_fn_pump_mc != NULL
                             ? PyMethod_New(g_fn_pump_mc, owner)
                             : PyObject_GetAttr(owner, s_pump_mc_name);
        if (pump == NULL)
            goto fail;
        PyObject *pargs = PyTuple_Pack(1, mc_id_obj);
        if (pargs == NULL) {
            Py_DECREF(pump);
            goto fail;
        }
        rc = core_post_late(self, self->now, pump, pargs);
        Py_DECREF(pargs);
        Py_DECREF(pump);
        if (rc < 0)
            goto fail;
    }
    Py_DECREF(armed_outer);
    Py_DECREF(hint_outer);
    return 1;
fail:
    Py_DECREF(armed_outer);
    Py_DECREF(hint_outer);
    return -1;
}

/* kind: System._on_mc_space(mc_id) as a wheel event (it is normally
 * invoked synchronously, but an event-dispatched call mirrors too) */
static int
kind_sys_on_mc_space(WheelCore *self, PyObject *owner, PyObject *cb,
                     PyObject *args)
{
    (void)cb;
    if (PyTuple_GET_SIZE(args) != 1 ||
        !PyLong_CheckExact(PyTuple_GET_ITEM(args, 0)))
        return 0;
    PyObject *mc_id_obj = PyTuple_GET_ITEM(args, 0);
    long long mc_id;
    if (ll_from(mc_id_obj, &mc_id) < 0)
        return -1;
    return sys_on_mc_space_native(self, owner, mc_id_obj, mc_id);
}

/* System._queue_pending_read's body (mc_id slots already resolved) */
static int
sys_queue_pending_read(PyObject *pending_reads, PyObject *sources,
                       PyObject *req, PyObject *core_id)
{
    PyObject *per_core = PyDict_GetItemWithError(pending_reads, core_id);
    if (per_core == NULL) {
        if (PyErr_Occurred())
            return -1;
        PyObject *fresh = PyObject_CallNoArgs(g_cls_deque);
        if (fresh == NULL)
            return -1;
        if (PyDict_SetItem(pending_reads, core_id, fresh) < 0) {
            Py_DECREF(fresh);
            return -1;
        }
        long long core_ll;
        if (ll_from(core_id, &core_ll) < 0) {
            Py_DECREF(fresh);
            return -1;
        }
        Py_ssize_t pos = bisect_right_ll(sources, core_ll);
        if (pos < 0 || PyList_Insert(sources, pos, core_id) < 0) {
            Py_DECREF(fresh);
            return -1;
        }
        int rc = call_1(fresh, s_append, req);
        Py_DECREF(fresh);
        return rc;
    }
    return call_1(per_core, s_append, req);
}

/* System._admit_pending_reads(mc_id): round-robin one-per-core
 * admission; returns early (rc 0) the moment an enqueue is refused. */
static int
sys_admit_pending_reads(WheelCore *self, PyObject *controller,
                        PyObject *pending_reads, PyObject *sources,
                        PyObject *rr_outer, long long mc_id)
{
    while (PyList_GET_SIZE(sources) > 0) {
        long long rr;
        if (ll_from(PyList_GET_ITEM(rr_outer, (Py_ssize_t)mc_id), &rr) < 0)
            return -1;
        Py_ssize_t n = PyList_GET_SIZE(sources);
        Py_ssize_t start = bisect_left_ll(sources, rr);
        if (start < 0)
            return -1;
        PyObject *tail = PyList_GetSlice(sources, start, n);
        if (tail == NULL)
            return -1;
        PyObject *head = PyList_GetSlice(sources, 0, start);
        if (head == NULL) {
            Py_DECREF(tail);
            return -1;
        }
        PyObject *ordered = PySequence_Concat(tail, head);
        Py_DECREF(tail);
        Py_DECREF(head);
        if (ordered == NULL)
            return -1;
        int admitted_any = 0;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(ordered); i++) {
            PyObject *core_obj = PyList_GET_ITEM(ordered, i);
            Py_INCREF(core_obj);
            long long core_ll;
            if (ll_from(core_obj, &core_ll) < 0)
                goto item_fail;
            PyObject *queue =
                PyDict_GetItemWithError(pending_reads, core_obj);
            if (queue == NULL) {
                if (!PyErr_Occurred())
                    PyErr_SetObject(PyExc_KeyError, core_obj);
                goto item_fail;
            }
            PyObject *front = PySequence_GetItem(queue, 0);
            if (front == NULL)
                goto item_fail;
            int accepted;
            if (try_enqueue_any(self, controller, front, &accepted) < 0) {
                Py_DECREF(front);
                goto item_fail;
            }
            Py_DECREF(front);
            if (!accepted) {
                Py_DECREF(core_obj);
                Py_DECREF(ordered);
                return 0;
            }
            {
                PyObject *popped =
                    PyObject_CallMethodObjArgs(queue, s_popleft, NULL);
                if (popped == NULL)
                    goto item_fail;
                Py_DECREF(popped);
            }
            Py_ssize_t remaining = PyObject_Size(queue);
            if (remaining < 0)
                goto item_fail;
            if (remaining == 0) {
                if (PyDict_DelItem(pending_reads, core_obj) < 0)
                    goto item_fail;
                Py_ssize_t at = bisect_left_ll(sources, core_ll);
                if (at < 0 ||
                    PyList_SetSlice(sources, at, at + 1, NULL) < 0)
                    goto item_fail;
            }
            {
                PyObject *next_rr = PyLong_FromLongLong(core_ll + 1);
                if (next_rr == NULL)
                    goto item_fail;
                if (PyList_SetItem(rr_outer, (Py_ssize_t)mc_id,
                                   next_rr) < 0)
                    goto item_fail;
            }
            admitted_any = 1;
            Py_DECREF(core_obj);
            continue;
        item_fail:
            Py_DECREF(core_obj);
            Py_DECREF(ordered);
            return -1;
        }
        Py_DECREF(ordered);
        if (!admitted_any)
            return 0;
    }
    return 0;
}

/* kind: System._pump_mc(mc_id) */
static int
kind_sys_pump_mc(WheelCore *self, PyObject *owner, PyObject *cb,
                 PyObject *args)
{
    (void)cb;
    if (PyTuple_GET_SIZE(args) != 1 ||
        !PyLong_CheckExact(PyTuple_GET_ITEM(args, 0)))
        return 0;
    long long mc_id;
    if (ll_from(PyTuple_GET_ITEM(args, 0), &mc_id) < 0)
        return -1;
    if (owner_shadows(owner, g_shadow_system, g_shadow_system_n))
        return 0;
    /* pre-flight every container before the first mutation */
    PyObject *controllers = NULL, *controller = NULL;
    PyObject *armed_outer = NULL, *armed = NULL;
    PyObject *hint_outer = NULL, *hint = NULL;
    PyObject *pw_outer = NULL, *pending_writes = NULL;
    PyObject *buf_outer = NULL, *buf = NULL;
    PyObject *pr_outer = NULL, *pending_reads = NULL;
    PyObject *src_outer = NULL, *sources = NULL;
    PyObject *rr_outer = NULL, *rr = NULL;
    PyObject *arrivals = NULL;
    int rc = 1;
    if (sys_slot(owner, s_controllers, mc_id, &controllers,
                 &controller) <= 0)
        goto decline;
    if (sys_slot(owner, s_mc_pump_armed, mc_id, &armed_outer,
                 &armed) <= 0)
        goto decline;
    if (sys_slot(owner, s_mc_space_hint, mc_id, &hint_outer, &hint) <= 0)
        goto decline;
    if (sys_slot(owner, s_mc_pending_writes, mc_id, &pw_outer,
                 &pending_writes) <= 0)
        goto decline;
    if ((PyObject *)Py_TYPE(pending_writes) != g_cls_deque)
        goto decline;
    if (sys_slot(owner, s_mc_arrivals, mc_id, &buf_outer, &buf) <= 0)
        goto decline;
    if (!PyList_CheckExact(buf))
        goto decline;
    if (sys_slot(owner, s_mc_pending_reads, mc_id, &pr_outer,
                 &pending_reads) <= 0)
        goto decline;
    if (!PyDict_CheckExact(pending_reads))
        goto decline;
    if (sys_slot(owner, s_mc_read_sources, mc_id, &src_outer,
                 &sources) <= 0)
        goto decline;
    if (!PyList_CheckExact(sources))
        goto decline;
    if (sys_slot(owner, s_mc_rr_pointer, mc_id, &rr_outer, &rr) <= 0)
        goto decline;
    /* self._mc_pump_armed[mc_id] = False */
    Py_INCREF(Py_False);
    if (PyList_SetItem(armed_outer, (Py_ssize_t)mc_id, Py_False) < 0)
        goto fail;
    {
        int hinted = PyObject_IsTrue(hint);
        if (hinted < 0)
            goto fail;
        if (hinted) {
            Py_INCREF(Py_False);
            if (PyList_SetItem(hint_outer, (Py_ssize_t)mc_id,
                               Py_False) < 0)
                goto fail;
            if (sys_admit_pending_reads(self, controller, pending_reads,
                                        sources, rr_outer, mc_id) < 0)
                goto fail;
            for (;;) {
                Py_ssize_t backlog = PyObject_Size(pending_writes);
                if (backlog < 0)
                    goto fail;
                if (backlog == 0)
                    break;
                PyObject *front = PySequence_GetItem(pending_writes, 0);
                if (front == NULL)
                    goto fail;
                int accepted;
                if (try_enqueue_any(self, controller, front,
                                    &accepted) < 0) {
                    Py_DECREF(front);
                    goto fail;
                }
                Py_DECREF(front);
                if (!accepted)
                    break;
                PyObject *popped = PyObject_CallMethodObjArgs(
                    pending_writes, s_popleft, NULL);
                if (popped == NULL)
                    goto fail;
                Py_DECREF(popped);
            }
        }
    }
    {
        Py_ssize_t pending_count = PyList_GET_SIZE(buf);
        if (pending_count == 0)
            goto done;
        arrivals = PyList_GetSlice(buf, 0, pending_count);
        if (arrivals == NULL)
            goto fail;
        if (PyList_SetSlice(buf, 0, pending_count, NULL) < 0)
            goto fail;
        PyObject *sort = PyObject_GetAttr(arrivals, s_sort);
        if (sort == NULL)
            goto fail;
        PyObject *sorted_none =
            PyObject_Call(sort, g_empty_tuple, g_kw_noc);
        Py_DECREF(sort);
        if (sorted_none == NULL)
            goto fail;
        Py_DECREF(sorted_none);
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(arrivals); i++) {
        PyObject *req = PyList_GET_ITEM(arrivals, i);
        int is_write = truthy_attr(req, s_is_memory_write);
        if (is_write < 0)
            goto fail;
        if (is_write) {
            Py_ssize_t backlog = PyObject_Size(pending_writes);
            if (backlog < 0)
                goto fail;
            int queue_it = 1;
            if (backlog == 0) {
                int accepted;
                if (try_enqueue_any(self, controller, req,
                                    &accepted) < 0)
                    goto fail;
                queue_it = !accepted;
            }
            if (queue_it &&
                call_1(pending_writes, s_append, req) < 0)
                goto fail;
            continue;
        }
        PyObject *core_id = PyObject_GetAttr(req, s_core_id);
        if (core_id == NULL)
            goto fail;
        PyObject *per_core =
            PyDict_GetItemWithError(pending_reads, core_id);
        if (per_core == NULL && PyErr_Occurred()) {
            Py_DECREF(core_id);
            goto fail;
        }
        int backlogged = 0;
        if (per_core != NULL) {
            backlogged = PyObject_IsTrue(per_core);
            if (backlogged < 0) {
                Py_DECREF(core_id);
                goto fail;
            }
        }
        if (backlogged) {
            if (call_1(per_core, s_append, req) < 0) {
                Py_DECREF(core_id);
                goto fail;
            }
        } else {
            int accepted;
            if (try_enqueue_any(self, controller, req, &accepted) < 0) {
                Py_DECREF(core_id);
                goto fail;
            }
            if (!accepted &&
                sys_queue_pending_read(pending_reads, sources, req,
                                       core_id) < 0) {
                Py_DECREF(core_id);
                goto fail;
            }
        }
        Py_DECREF(core_id);
    }
    goto done;
decline:
    rc = 0;
    goto done;
fail:
    rc = -1;
done:
    Py_XDECREF(arrivals);
    Py_XDECREF(rr_outer);
    Py_XDECREF(src_outer);
    Py_XDECREF(pr_outer);
    Py_XDECREF(buf_outer);
    Py_XDECREF(pw_outer);
    Py_XDECREF(hint_outer);
    Py_XDECREF(armed_outer);
    Py_XDECREF(controllers);
    return rc;
}

/* kind: System._enqueue_response(core, req) */
static int
kind_sys_enqueue_response(WheelCore *self, PyObject *owner, PyObject *cb,
                          PyObject *args)
{
    (void)cb;
    if (PyTuple_GET_SIZE(args) != 2)
        return 0;
    if (owner_shadows(owner, g_shadow_system, g_shadow_system_n))
        return 0;
    PyObject *core = PyTuple_GET_ITEM(args, 0);
    PyObject *req = PyTuple_GET_ITEM(args, 1);
    PyObject *inbox = fast_getattr(owner, s_resp_inbox);
    if (inbox == NULL) {
        PyErr_Clear();
        return 0;
    }
    if (!PyList_CheckExact(inbox)) {
        Py_DECREF(inbox);
        return 0;
    }
    if (PyList_GET_SIZE(inbox) == 0) {
        PyObject *flush =
            g_fn_flush_responses != NULL
                ? PyMethod_New(g_fn_flush_responses, owner)
                : PyObject_GetAttr(owner, s_flush_responses_name);
        if (flush == NULL)
            goto fail;
        int rc = core_post_late(self, self->now, flush, g_empty_tuple);
        Py_DECREF(flush);
        if (rc < 0)
            goto fail;
    }
    {
        int l3 = truthy_attr(req, s_l3_hit);
        if (l3 < 0)
            goto fail;
        PyObject *key;
        if (l3) {
            PyObject *noc_seq = PyObject_GetAttr(req, s_noc_seq);
            if (noc_seq == NULL)
                goto fail;
            key = PyTuple_Pack(3, g_zero, noc_seq, g_zero);
            Py_DECREF(noc_seq);
        } else {
            PyObject *mc_id = PyObject_GetAttr(req, s_mc_id);
            if (mc_id == NULL)
                goto fail;
            PyObject *completed = PyObject_GetAttr(req, s_completed_at);
            if (completed == NULL) {
                Py_DECREF(mc_id);
                goto fail;
            }
            key = PyTuple_Pack(3, g_one, mc_id, completed);
            Py_DECREF(completed);
            Py_DECREF(mc_id);
        }
        if (key == NULL)
            goto fail;
        PyObject *item = PyTuple_Pack(3, key, core, req);
        Py_DECREF(key);
        if (item == NULL)
            goto fail;
        int rc = PyList_Append(inbox, item);
        Py_DECREF(item);
        if (rc < 0)
            goto fail;
    }
    Py_DECREF(inbox);
    return 1;
fail:
    Py_DECREF(inbox);
    return -1;
}

/* kind: System._flush_responses() */
static int
kind_sys_flush_responses(WheelCore *self, PyObject *owner, PyObject *cb,
                         PyObject *args)
{
    (void)self;
    (void)cb;
    if (PyTuple_GET_SIZE(args) != 0)
        return 0;
    if (owner_shadows(owner, g_shadow_system, g_shadow_system_n))
        return 0;
    PyObject *inbox = fast_getattr(owner, s_resp_inbox);
    if (inbox == NULL) {
        PyErr_Clear();
        return 0;
    }
    if (!PyList_CheckExact(inbox)) {
        Py_DECREF(inbox);
        return 0;
    }
    {
        PyObject *fresh = PyList_New(0);
        if (fresh == NULL)
            goto fail;
        int rc = fast_setattr(owner, s_resp_inbox, fresh);
        Py_DECREF(fresh);
        if (rc < 0)
            goto fail;
    }
    {
        PyObject *sort = PyObject_GetAttr(inbox, s_sort);
        if (sort == NULL)
            goto fail;
        PyObject *sorted_none =
            PyObject_Call(sort, g_empty_tuple, g_kw_key);
        Py_DECREF(sort);
        if (sorted_none == NULL)
            goto fail;
        Py_DECREF(sorted_none);
    }
    {
        PyObject *respond = PyObject_GetAttr(owner, s_respond_name);
        if (respond == NULL)
            goto fail;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(inbox); i++) {
            PyObject *item = PyList_GET_ITEM(inbox, i);
            if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 3) {
                PyErr_SetString(PyExc_ValueError,
                                "response inbox entry is not "
                                "(key, core, req)");
                Py_DECREF(respond);
                goto fail;
            }
            PyObject *result = PyObject_CallFunctionObjArgs(
                respond, PyTuple_GET_ITEM(item, 1),
                PyTuple_GET_ITEM(item, 2), NULL);
            if (result == NULL) {
                Py_DECREF(respond);
                goto fail;
            }
            Py_DECREF(result);
        }
        Py_DECREF(respond);
    }
    Py_DECREF(inbox);
    return 1;
fail:
    Py_DECREF(inbox);
    return -1;
}

/* ------------------------------------------------------------------ */
/* the kind table and the dispatch-time recognizer                    */
/* ------------------------------------------------------------------ */

typedef int (*native_handler)(WheelCore *, PyObject *, PyObject *,
                              PyObject *);

/* Table entry for kinds that are only executed synchronously from
 * inside other handlers (arbiter pick/on_accept): they are never
 * dispatched as wheel events, so an (impossible) event dispatch just
 * declines to the Python callback. */
static int
kind_decline(WheelCore *self, PyObject *owner, PyObject *cb, PyObject *args)
{
    (void)self;
    (void)owner;
    (void)cb;
    (void)args;
    return 0;
}

typedef struct {
    const char *name;        /* kind tag, as in native.kind_table()         */
    int engine_is_private;   /* owner's engine attr: "_engine" vs "engine"  */
    native_handler handler;
    PyObject *func;          /* the registered plain function object        */
    PyObject *cls;           /* the exact owner class                       */
    long long hits;
} NativeKind;

/* Frequency-ordered (fig05 dispatch profile): the scan walks this
 * array comparing function pointers, so the common kinds come first. */
static NativeKind g_kinds[] = {
    {"mc_run_pass", 1, kind_mc_run_pass, NULL, NULL, 0},
    {"sys_pump_mc", 0, kind_sys_pump_mc, NULL, NULL, 0},
    {"sys_enqueue_response", 0, kind_sys_enqueue_response, NULL, NULL, 0},
    {"mc_complete_fused", 1, kind_mc_complete_fused, NULL, NULL, 0},
    {"sys_flush_responses", 0, kind_sys_flush_responses, NULL, NULL, 0},
    {"pacer_release_head", 1, kind_pacer_release_head, NULL, NULL, 0},
    {"sys_deliver", 0, kind_sys_deliver, NULL, NULL, 0},
    {"mc_complete", 1, kind_mc_complete, NULL, NULL, 0},
    /* Indices below must match the KIND_IDX_* defines: these kinds are
     * (also) executed synchronously from inside other handlers, and
     * those call sites count their hits by fixed index. */
    {"sys_on_mc_space", 0, kind_sys_on_mc_space, NULL, NULL, 0},
    {"mc_policy_on_accept", 0, kind_decline, NULL, NULL, 0},
    {"mc_policy_pick", 0, kind_decline, NULL, NULL, 0},
};
#define N_KINDS ((int)(sizeof(g_kinds) / sizeof(g_kinds[0])))

/* Count a native execution that happened synchronously inside another
 * handler (not via wheel dispatch).  Feeds the per-kind counters only:
 * fastpath_hits/misses stay a strict measure of dispatch-loop coverage. */
static void
kind_count_sync_hit(int idx)
{
    g_kinds[idx].hits += 1;
}

static int g_kinds_ready = 0;

static int
native_dispatch(WheelCore *self, PyObject *cb, PyObject *args)
{
    if (g_kinds_ready && PyMethod_Check(cb) && PyTuple_CheckExact(args)) {
        PyObject *func = PyMethod_GET_FUNCTION(cb);
        for (int i = 0; i < N_KINDS; i++) {
            NativeKind *kind = &g_kinds[i];
            if (kind->func != func)
                continue;
            PyObject *owner = PyMethod_GET_SELF(cb);
            if (owner == NULL ||
                (PyObject *)Py_TYPE(owner) != kind->cls)
                break;
            PyObject *name =
                kind->engine_is_private ? s_engine_priv : s_engine_pub;
            PyObject *engine = inst_get(owner, name); /* borrowed */
            if (engine == NULL) {
                engine = PyObject_GetAttr(owner, name);
                if (engine == NULL) {
                    PyErr_Clear();
                    break;
                }
                int ours = engine == (PyObject *)self;
                Py_DECREF(engine);
                if (!ours)
                    break;
            } else if (engine != (PyObject *)self) {
                break;
            }
            Py_INCREF(owner);
            int handled = kind->handler(self, owner, cb, args);
            Py_DECREF(owner);
            if (handled < 0)
                return -1;
            if (handled) {
                kind->hits += 1;
                self->fastpath_hits += 1;
                g_fp_hits += 1;
                return 1;
            }
            break;
        }
    }
    self->fastpath_misses += 1;
    g_fp_misses += 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* module plumbing                                                    */
/* ------------------------------------------------------------------ */

static PyObject *
mod_dispatched_total(PyObject *module, PyObject *noargs)
{
    return PyLong_FromLongLong(g_dispatched_total);
}

static PyObject *
mod_install(PyObject *module, PyObject *error_class)
{
    Py_INCREF(error_class);
    Py_XSETREF(g_sim_error, error_class);
    Py_RETURN_NONE;
}

/* _install_kinds(kinds, helpers): bind the native-kind table.
 * kinds: {tag: (function, exact_owner_class)}; helpers: the exact
 * guard classes plus the two sort keys (see repro.accel.native). */
static PyObject *
mod_install_kinds(PyObject *module, PyObject *args)
{
    PyObject *kinds, *helpers;
    if (!PyArg_ParseTuple(args, "O!O!", &PyDict_Type, &kinds,
                          &PyDict_Type, &helpers))
        return NULL;
    if (PyDict_GET_SIZE(kinds) != N_KINDS) {
        PyErr_Format(PyExc_ValueError,
                     "expected %d native kinds, got %zd", N_KINDS,
                     PyDict_GET_SIZE(kinds));
        return NULL;
    }
    g_kinds_ready = 0;
#define HELPER(keystr, target)                                            \
    do {                                                                  \
        PyObject *value = PyDict_GetItemString(helpers, keystr);          \
        if (value == NULL) {                                              \
            if (!PyErr_Occurred())                                        \
                PyErr_Format(PyExc_KeyError,                              \
                             "missing native helper '%s'", keystr);       \
            return NULL;                                                  \
        }                                                                 \
        Py_INCREF(value);                                                 \
        Py_XSETREF(target, value);                                        \
    } while (0)
    HELPER("bank", g_cls_bank);
    HELPER("databus", g_cls_databus);
    HELPER("stats", g_cls_stats);
    HELPER("class_stats", g_cls_class_stats);
    HELPER("deque", g_cls_deque);
#undef HELPER
    {
        PyObject *by_key = PyDict_GetItemString(helpers, "by_key");
        PyObject *by_noc = PyDict_GetItemString(helpers, "by_noc_seq");
        if (by_key == NULL || by_noc == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_KeyError,
                                "missing native sort-key helpers");
            return NULL;
        }
        PyObject *kw = PyDict_New();
        if (kw == NULL ||
            PyDict_SetItemString(kw, "key", by_key) < 0) {
            Py_XDECREF(kw);
            return NULL;
        }
        Py_XSETREF(g_kw_key, kw);
        kw = PyDict_New();
        if (kw == NULL ||
            PyDict_SetItemString(kw, "key", by_noc) < 0) {
            Py_XDECREF(kw);
            return NULL;
        }
        Py_XSETREF(g_kw_noc, kw);
    }
    for (int i = 0; i < N_KINDS; i++) {
        NativeKind *kind = &g_kinds[i];
        PyObject *spec = PyDict_GetItemString(kinds, kind->name);
        if (spec == NULL) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_KeyError,
                             "missing native kind '%s'", kind->name);
            return NULL;
        }
        PyObject *func, *cls;
        if (!PyArg_ParseTuple(spec, "OO", &func, &cls))
            return NULL;
        Py_INCREF(func);
        Py_XSETREF(kind->func, func);
        Py_INCREF(cls);
        Py_XSETREF(kind->cls, cls);
        kind->hits = 0;
        if (strcmp(kind->name, "mc_run_pass") == 0) {
            Py_INCREF(cls);
            Py_XSETREF(g_cls_controller, cls);
            Py_INCREF(func);
            Py_XSETREF(g_fn_run_pass, func);
        } else if (strcmp(kind->name, "mc_complete") == 0) {
            Py_INCREF(func);
            Py_XSETREF(g_fn_complete, func);
        } else if (strcmp(kind->name, "mc_complete_fused") == 0) {
            Py_INCREF(func);
            Py_XSETREF(g_fn_complete_fused, func);
        } else if (strcmp(kind->name, "sys_pump_mc") == 0) {
            Py_INCREF(func);
            Py_XSETREF(g_fn_pump_mc, func);
        } else if (strcmp(kind->name, "sys_flush_responses") == 0) {
            Py_INCREF(func);
            Py_XSETREF(g_fn_flush_responses, func);
        } else if (strcmp(kind->name, "sys_on_mc_space") == 0) {
            Py_INCREF(func);
            Py_XSETREF(g_fn_on_mc_space, func);
            Py_INCREF(cls);
            Py_XSETREF(g_cls_system, cls);
        } else if (strcmp(kind->name, "mc_policy_pick") == 0) {
            Py_INCREF(cls);
            Py_XSETREF(g_cls_arbiter, cls);
        }
    }
    g_kinds_ready = 1;
    Py_RETURN_NONE;
}

/* fastpath_stats() -> {"hits", "misses", "kinds": {tag: hits}} */
static PyObject *
mod_fastpath_stats(PyObject *module, PyObject *noargs)
{
    PyObject *per_kind = PyDict_New();
    if (per_kind == NULL)
        return NULL;
    for (int i = 0; i < N_KINDS; i++) {
        PyObject *hits = PyLong_FromLongLong(g_kinds[i].hits);
        if (hits == NULL)
            goto fail;
        int rc = PyDict_SetItemString(per_kind, g_kinds[i].name, hits);
        Py_DECREF(hits);
        if (rc < 0)
            goto fail;
    }
    {
        PyObject *result = PyDict_New();
        if (result == NULL)
            goto fail;
        PyObject *hits = PyLong_FromLongLong(g_fp_hits);
        PyObject *misses = PyLong_FromLongLong(g_fp_misses);
        int rc = hits == NULL || misses == NULL ||
                 PyDict_SetItemString(result, "hits", hits) < 0 ||
                 PyDict_SetItemString(result, "misses", misses) < 0 ||
                 PyDict_SetItemString(result, "kinds", per_kind) < 0;
        Py_XDECREF(hits);
        Py_XDECREF(misses);
        Py_DECREF(per_kind);
        if (rc) {
            Py_DECREF(result);
            return NULL;
        }
        return result;
    }
fail:
    Py_DECREF(per_kind);
    return NULL;
}

/* native_kinds() -> tuple of registered kind tags */
static PyObject *
mod_native_kinds(PyObject *module, PyObject *noargs)
{
    PyObject *names = PyTuple_New(N_KINDS);
    if (names == NULL)
        return NULL;
    for (int i = 0; i < N_KINDS; i++) {
        PyObject *name = PyUnicode_FromString(g_kinds[i].name);
        if (name == NULL) {
            Py_DECREF(names);
            return NULL;
        }
        PyTuple_SET_ITEM(names, i, name);
    }
    return names;
}

static PyMethodDef module_methods[] = {
    {"dispatched_total", mod_dispatched_total, METH_NOARGS,
     "Events dispatched by compiled loops in this process."},
    {"_install", mod_install, METH_O,
     "Inject SimulationError so compiled loops raise the engine's type."},
    {"_install_kinds", mod_install_kinds, METH_VARARGS,
     "Bind the native event-kind table (see repro.accel.native)."},
    {"fastpath_stats", mod_fastpath_stats, METH_NOARGS,
     "Process-wide native fast-path hit/miss counters, per kind."},
    {"native_kinds", mod_native_kinds, METH_NOARGS,
     "Kind tags with a registered C handler, in dispatch-scan order."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef wheelcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_wheelcore",
    .m_doc = "Compiled timing-wheel and controller kernels for repro.",
    .m_size = -1,
    .m_methods = module_methods,
};

static int
intern_all(void)
{
#define INTERN(var, text)                                                 \
    do {                                                                  \
        var = PyUnicode_InternFromString(text);                           \
        if (var == NULL)                                                  \
            return -1;                                                    \
    } while (0)
    INTERN(s_as_cycles, "_as_cycles");
    INTERN(s_on_event, "on_event");
    INTERN(s_deadline_word, "deadline");
    INTERN(s_bank_id, "bank_id");
    INTERN(s_row_id, "row_id");
    INTERN(s_open_page, "open_page");
    INTERN(s_open_row, "open_row");
    INTERN(s_prep_hit, "prep_hit");
    INTERN(s_prep_miss, "prep_miss");
    /* pacer */
    INTERN(s_popleft, "popleft");
    INTERN(s_release_token, "_release_token");
    INTERN(s_blocked, "_blocked");
    INTERN(s_den, "_den");
    INTERN(s_period_num, "_period_num");
    INTERN(s_cnext_scaled, "_cnext_scaled");
    INTERN(s_released, "released");
    /* controller */
    INTERN(s_pass_token, "_pass_token");
    INTERN(s_pass_at, "_pass_at");
    INTERN(s_draining_writes, "_draining_writes");
    INTERN(s_read_queue, "read_queue");
    INTERN(s_write_queue, "write_queue");
    INTERN(s_wm_low, "_wm_low");
    INTERN(s_wm_high, "_wm_high");
    INTERN(s_banks, "banks");
    INTERN(s_uniform_prep, "_uniform_prep");
    INTERN(s_bus, "bus");
    INTERN(s_free_at, "free_at");
    INTERN(s_busy_cycles, "busy_cycles");
    INTERN(s_transfers, "transfers");
    INTERN(s_burst, "_burst");
    INTERN(s_busy_until, "busy_until");
    INTERN(s_accesses, "accesses");
    INTERN(s_row_hits, "row_hits");
    INTERN(s_recovery, "_recovery");
    INTERN(s_bank_busy, "_bank_busy");
    INTERN(s_busy_times, "_busy_times");
    INTERN(s_dispatched_at, "dispatched_at");
    INTERN(s_issued_at, "issued_at");
    INTERN(s_on_issue, "on_issue");
    INTERN(s_issued, "issued");
    INTERN(s_on_complete, "on_complete");
    INTERN(s_completed, "completed");
    INTERN(s_on_accept, "on_accept");
    INTERN(s_arrived, "arrived");
    INTERN(s_bus_busy_cycles, "bus_busy_cycles");
    INTERN(s_is_memory_write, "is_memory_write");
    INTERN(s_is_read, "is_read");
    INTERN(s_occ_integral, "_occ_integral");
    INTERN(s_occ_last_update, "_occ_last_update");
    INTERN(s_fused, "_fused");
    INTERN(s_respond_fn, "_respond_fn");
    INTERN(s_issue_name, "_issue");
    INTERN(s_complete_name, "_complete");
    INTERN(s_complete_fused_name, "_complete_fused");
    INTERN(s_run_pass_name, "_run_pass");
    INTERN(s_core_id, "core_id");
    INTERN(s_stats_attr, "_stats");
    INTERN(s_inflight, "_inflight");
    INTERN(s_active_since, "_active_since");
    INTERN(s_active_cycles, "active_cycles");
    INTERN(s_mc_active_cycles, "mc_active_cycles");
    INTERN(s_min_prep, "_min_prep");
    INTERN(s_space_listeners, "_space_listeners");
    INTERN(s_mc_id, "mc_id");
    INTERN(s_policy, "policy");
    INTERN(s_pick, "pick");
    INTERN(s_read_capacity, "_read_capacity");
    INTERN(s_write_capacity, "_write_capacity");
    INTERN(s_rejects, "rejects");
    INTERN(s_requests_rejected, "requests_rejected");
    INTERN(s_reads_accepted, "reads_accepted");
    INTERN(s_writes_accepted, "writes_accepted");
    INTERN(s_requests_enqueued, "requests_enqueued");
    INTERN(s_arrived_mc_at, "arrived_mc_at");
    INTERN(s_map, "_map");
    INTERN(s_decode, "decode");
    INTERN(s_addr, "addr");
    INTERN(s_record_completion, "record_completion");
    INTERN(s_on_read_complete, "on_read_complete");
    INTERN(s_try_enqueue, "try_enqueue");
    INTERN(s_engine_pub, "engine");
    INTERN(s_engine_priv, "_engine");
    /* stats */
    INTERN(s_classes, "classes");
    INTERN(s_qos_id, "qos_id");
    INTERN(s_size, "size");
    INTERN(s_bytes_read, "bytes_read");
    INTERN(s_bytes_written, "bytes_written");
    INTERN(s_reads_completed, "reads_completed");
    INTERN(s_writes_completed, "writes_completed");
    INTERN(s_read_latency_sum, "read_latency_sum");
    INTERN(s_read_latency_max, "read_latency_max");
    INTERN(s_reads_attributed, "reads_attributed");
    INTERN(s_reads_unattributed, "reads_unattributed");
    INTERN(s_stage_pacer_sum, "stage_pacer_sum");
    INTERN(s_stage_noc_sum, "stage_noc_sum");
    INTERN(s_stage_queue_sum, "stage_queue_sum");
    INTERN(s_stage_service_sum, "stage_service_sum");
    INTERN(s_sample_latencies, "sample_latencies");
    INTERN(s_epoch_bytes, "_epoch_bytes");
    INTERN(s_created_at, "created_at");
    INTERN(s_released_at, "released_at");
    INTERN(s_completed_at, "completed_at");
    /* system */
    INTERN(s_mc_arrivals, "_mc_arrivals");
    INTERN(s_mc_pump_armed, "_mc_pump_armed");
    INTERN(s_mc_space_hint, "_mc_space_hint");
    INTERN(s_mc_pending_writes, "_mc_pending_writes");
    INTERN(s_mc_pending_reads, "_mc_pending_reads");
    INTERN(s_mc_read_sources, "_mc_read_sources");
    INTERN(s_mc_rr_pointer, "_mc_rr_pointer");
    INTERN(s_resp_inbox, "_resp_inbox");
    INTERN(s_controllers, "controllers");
    INTERN(s_pump_mc_name, "_pump_mc");
    INTERN(s_flush_responses_name, "_flush_responses");
    INTERN(s_respond_name, "_respond");
    INTERN(s_l3_hit, "l3_hit");
    INTERN(s_noc_seq, "noc_seq");
    INTERN(s_sort, "sort");
    INTERN(s_append, "append");
    /* arbiter */
    INTERN(s_registry, "_registry");
    INTERN(s_slack, "_slack");
    INTERN(s_row_hits_first, "_row_hits_first");
    INTERN(s_clocks, "_clocks");
    INTERN(s_last_picked_deadline, "_last_picked_deadline");
    INTERN(s_capped_deadlines, "capped_deadlines");
    INTERN(s_virtual_deadline, "virtual_deadline");
    INTERN(s_req_id, "req_id");
    INTERN(s_stride, "stride");
    INTERN(s_qos_classes, "_classes");
    INTERN(s_issue_ready_name, "_issue_ready");
    INTERN(s_ready_name, "_ready");
    INTERN(s_notify_space_name, "_notify_space");
    INTERN(s_schedule_wakeup_name, "_schedule_wakeup");
    INTERN(s_request_pass_name, "_request_pass");
    INTERN(s_retire_name, "_retire");
    INTERN(s_update_occupancy_name, "_update_occupancy");
    INTERN(s_release_head_name, "_release_head");
    INTERN(s_release_now_name, "_release_now");
    INTERN(s_release_time_name, "_release_time");
    INTERN(s_admit_pending_name, "_admit_pending_reads");
    INTERN(s_queue_pending_name, "_queue_pending_read");
#undef INTERN
    /* Per-class shadow sets: every method a mirrored span of that
     * class freshly looks up in pure Python (the callback itself, the
     * inlined internals, and the continuations fabricated from cached
     * class functions).  An instance-dict hit on any of them drops the
     * component off the fast path — see owner_shadows(). */
    {
        int n = 0;
        g_shadow_ctrl[n++] = s_run_pass_name;
        g_shadow_ctrl[n++] = s_issue_ready_name;
        g_shadow_ctrl[n++] = s_ready_name;
        g_shadow_ctrl[n++] = s_issue_name;
        g_shadow_ctrl[n++] = s_notify_space_name;
        g_shadow_ctrl[n++] = s_schedule_wakeup_name;
        g_shadow_ctrl[n++] = s_request_pass_name;
        g_shadow_ctrl[n++] = s_retire_name;
        g_shadow_ctrl[n++] = s_complete_name;
        g_shadow_ctrl[n++] = s_complete_fused_name;
        g_shadow_ctrl[n++] = s_try_enqueue;
        g_shadow_ctrl[n++] = s_update_occupancy_name;
        g_shadow_ctrl_n = n;
        n = 0;
        g_shadow_pacer[n++] = s_release_head_name;
        g_shadow_pacer[n++] = s_release_now_name;
        g_shadow_pacer[n++] = s_release_time_name;
        g_shadow_pacer_n = n;
        n = 0;
        g_shadow_system[n++] = s_pump_mc_name;
        g_shadow_system[n++] = s_admit_pending_name;
        g_shadow_system[n++] = s_queue_pending_name;
        g_shadow_system[n++] = s_flush_responses_name;
        g_shadow_system_n = n;
        n = 0;
        g_shadow_arb[n++] = s_pick;
        g_shadow_arb[n++] = s_on_accept;
        g_shadow_arb_n = n;
    }
    g_empty_tuple = PyTuple_New(0);
    g_zero = PyLong_FromLong(0);
    g_one = PyLong_FromLong(1);
    if (g_empty_tuple == NULL || g_zero == NULL || g_one == NULL)
        return -1;
    return 0;
}

PyMODINIT_FUNC
PyInit__wheelcore(void)
{
    if (intern_all() < 0)
        return NULL;
    if (PyType_Ready(&WheelCoreType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&wheelcore_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&WheelCoreType);
    if (PyModule_AddObject(module, "WheelCore",
                           (PyObject *)&WheelCoreType) < 0) {
        Py_DECREF(&WheelCoreType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddIntConstant(module, "WHEEL_BITS", WHEEL_BITS) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
