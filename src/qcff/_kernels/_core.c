/* Compiled arithmetic kernel: the same interface as qcff/_kernels/pure.py.
 *
 * Field elements are ints in [0, q). Polynomials are coefficient sequences
 * (lists or tuples), ascending degree, no trailing zeros, empty = 0; every
 * result is a new list. Each call copies its polynomials into int buffers,
 * works there and copies the result out.
 *
 * FieldKernel(p, e, exp, log) takes the exp/log tables of F_q, q = p**e,
 * and builds negation and addition from p and e, digit by digit on the
 * encodings. The loops work on discrete logs, as the pure kernel's do: exp2
 * is the exp table repeated twice, so exp2[la + lb] is a product with no
 * step mod w. Each step adds one product into one coefficient, by the q*q
 * addition table for q <= 256 and digit by digit otherwise.
 *
 * ppowmod(f, n, m) is f**n mod m, [1] for n <= 0; n is read as a long long,
 * so one outside [-2**63, 2**63) raises OverflowError.
 *
 * ptable(m) builds the Frobenius table of a nonconstant m, a FrobeniusTable
 * object: the rows T**(q*i) mod m for i < n = deg m, as logs, and m's
 * divisor, prepared once. While q < n each row is the one before shifted up
 * q places and reduced; otherwise row 1 is T**q by ppowmod's loop and each
 * later row a product mod m. Only the kernel that built a table reads it:
 * papply(table, h) is h**q mod m, the sum of h_i * row i, one application
 * of the q-th power map; pnorm(table, h, d) is h**(1 + q + ... + q**(d-1))
 * mod m by an Itoh-Tsujii chain; pwalk(table, first) is the distinct-degree
 * split of m made monic, as a list of (part, degree) pairs in the order
 * found, only the first with first set. h has at most n coefficients; a
 * longer one raises ValueError.
 *
 * Every int read from Python is checked to lie in its table's range, so no
 * lookup can leave its table. Buffers come from PyMem, so tracemalloc sees
 * them.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

typedef struct {
    PyObject_HEAD
    int p, e, q, w;
    int *exp2; /* exp2[i] == exp[i % w] for 0 <= i < 2w */
    int *log;  /* log[0] == -1 */
    int *neg;
    int *add;  /* add[a * q + b] == a + b for q <= 256, else NULL */
} Kernel;

/* A divisor g, prepared once for any number of reductions: the nonzero
 * terms of h = -g / lc(g) below the top, as (index, log) pairs. */
typedef struct {
    Py_ssize_t dg; /* deg g */
    Py_ssize_t nh; /* number of nonzero terms of h */
    int linv;      /* log of 1 / lc(g) */
    int *hidx, *hlog;
} Divisor;

/* The Frobenius table of m, n = deg m >= 1. */
typedef struct {
    PyObject_HEAD
    Kernel *owner; /* the kernel that built it, the only one that reads it */
    Py_ssize_t n;
    int *mod;      /* m's n + 1 coefficients */
    int *rows;     /* rows[i * n + j]: the log of coefficient j of row i, -1 for 0 */
    int *room;     /* the divisor's 2n ints */
    Divisor div;
} Table;

static PyTypeObject TableType;

/* -- field arithmetic ---------------------------------------------------- */

static int add_digits(const Kernel *k, int a, int b) {
    int p = k->p, out = 0, scale = 1;
    if (k->e == 1)
        return (a + b) % p;
    while (a || b) {
        out += ((a % p + b % p) % p) * scale;
        a /= p;
        b /= p;
        scale *= p;
    }
    return out;
}

static inline int f_add(const Kernel *k, int a, int b) {
    return k->add ? k->add[(Py_ssize_t)a * k->q + b] : add_digits(k, a, b);
}

static inline int f_mul(const Kernel *k, int a, int b) {
    return a && b ? k->exp2[k->log[a] + k->log[b]] : 0;
}

static inline int f_inv(const Kernel *k, int a) {
    return k->exp2[(k->w - k->log[a]) % k->w];
}

/* -- conversions ---------------------------------------------------------- */

static int *new_ints(Py_ssize_t n) {
    int *buf = PyMem_New(int, n + 1);
    if (buf == NULL)
        PyErr_NoMemory();
    return buf;
}

/* Reads an int in [lo, hi); -1 with an exception set on failure. Only int
 * objects are taken, so no Python code runs while a sequence is read. */
static int read_int(PyObject *obj, long lo, long hi, int *out) {
    long v;
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "expected an int, got %.100s",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    if ((v = PyLong_AsLong(obj)) == -1 && PyErr_Occurred())
        return -1;
    if (v < lo || v >= hi) {
        PyErr_Format(PyExc_ValueError, "%ld is outside [%ld, %ld)", v, lo, hi);
        return -1;
    }
    *out = (int)v;
    return 0;
}

/* A new buffer holding the ints of seq, each in [lo, hi), followed by room
 * for `extra` more; their number goes to *len. NULL with an exception set
 * on failure. */
static int *read_ints(PyObject *seq, Py_ssize_t extra, long lo, long hi,
                      Py_ssize_t *len) {
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    Py_ssize_t i, n;
    int *buf = NULL;
    if (fast == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    if ((buf = new_ints(n + extra)) == NULL)
        goto done;
    for (i = 0; i < n; i++)
        if (read_int(PySequence_Fast_GET_ITEM(fast, i), lo, hi, &buf[i]) < 0) {
            PyMem_Free(buf);
            buf = NULL;
            goto done;
        }
    *len = n;
done:
    Py_DECREF(fast);
    return buf;
}

static int *read_poly(const Kernel *k, PyObject *seq, Py_ssize_t extra,
                      Py_ssize_t *len) {
    return read_ints(seq, extra, 0, k->q, len);
}

static PyObject *to_list(const int *buf, Py_ssize_t n) {
    PyObject *out = PyList_New(n), *item;
    Py_ssize_t i;
    for (i = 0; out != NULL && i < n; i++) {
        if ((item = PyLong_FromLong(buf[i])) == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static Py_ssize_t strip(const int *buf, Py_ssize_t n) {
    while (n > 0 && buf[n - 1] == 0)
        n--;
    return n;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t expected) {
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, expected, nargs);
    return -1;
}

/* -- polynomial loops on buffers ------------------------------------------ */

static void logs_of(const Kernel *k, const int *a, Py_ssize_t la, int *out) {
    Py_ssize_t i;
    for (i = 0; i < la; i++)
        out[i] = a[i] ? k->log[a[i]] : -1;
}

/* out = a * b, where blog holds the logs of b's coefficients (-1 for 0) and
 * out has room for la + lb - 1 ints. Returns the stripped length. */
static Py_ssize_t mul_into(const Kernel *k, const int *a, Py_ssize_t la,
                           const int *blog, Py_ssize_t lb, int *out) {
    Py_ssize_t i, j, lo = la + lb - 1;
    if (la == 0 || lb == 0)
        return 0;
    memset(out, 0, lo * sizeof(int));
    for (i = 0; i < la; i++) {
        int l, *o = out + i;
        if (a[i] == 0)
            continue;
        l = k->log[a[i]];
        for (j = 0; j < lb; j++)
            if (blog[j] >= 0)
                o[j] = f_add(k, o[j], k->exp2[l + blog[j]]);
    }
    return strip(out, lo);
}

/* Fills d for the divisor g (lg >= 1), whose hidx and hlog are stored in
 * `room`, which holds 2 (lg - 1) ints. */
static void prepare_divisor(const Kernel *k, const int *g, Py_ssize_t lg,
                            int *room, Divisor *d) {
    Py_ssize_t j;
    int w = k->w;
    d->dg = lg - 1;
    d->hidx = room;
    d->hlog = room + d->dg;
    d->linv = (w - k->log[g[lg - 1]]) % w;
    d->nh = 0;
    for (j = 0; j < d->dg; j++) {
        if (g[j]) {
            d->hidx[d->nh] = (int)j;
            d->hlog[d->nh++] = (k->log[k->neg[g[j]]] + d->linv) % w;
        }
    }
}

/* Reduces r (length lr) modulo the divisor in place and returns the
 * remainder's stripped length; when lr - 1 < dg, r is only stripped. Writes
 * the quotient's lr - dg coefficients to quot unless it is NULL. */
static Py_ssize_t rem_inplace(const Kernel *k, int *r, Py_ssize_t lr,
                              const Divisor *d, int *quot) {
    Py_ssize_t i, j, dg = d->dg;
    if (lr - 1 < dg)
        return strip(r, lr);
    for (i = lr - dg - 1; i >= 0; i--) {
        int t = r[i + dg], lt = t ? k->log[t] : 0, *ri = r + i;
        if (quot != NULL)
            quot[i] = t ? k->exp2[lt + d->linv] : 0;
        if (t == 0)
            continue;
        for (j = 0; j < d->nh; j++)
            ri[d->hidx[j]] = f_add(k, ri[d->hidx[j]], k->exp2[lt + d->hlog[j]]);
    }
    return strip(r, dg);
}

/* Euclid's algorithm in place: *a and *b trade buffers, and each buffer only
 * ever holds its input or a remainder computed in it, which is shorter.
 * Returns the length of the last nonzero remainder, which *a then holds
 * (not made monic). room holds 2 max(la, lb) ints. */
static Py_ssize_t gcd_inplace(const Kernel *k, int **a, Py_ssize_t la, int **b,
                              Py_ssize_t lb, int *room) {
    Divisor d;
    Py_ssize_t lr;
    int *t;
    while (lb > 0) {
        prepare_divisor(k, *b, lb, room, &d);
        lr = rem_inplace(k, *a, la, &d, NULL);
        t = *a, *a = *b, *b = t;
        la = lb, lb = lr;
    }
    return la;
}

/* a * b mod the divisor into out (room for la + lb ints), with logs room
 * for lb ints; returns the stripped length. */
static Py_ssize_t mulmod_into(const Kernel *k, const int *a, Py_ssize_t la,
                              const int *b, Py_ssize_t lb, const Divisor *d,
                              int *logs, int *out) {
    logs_of(k, b, lb, logs);
    return rem_inplace(k, out, mul_into(k, a, la, logs, lb, out), d, NULL);
}

/* base**n mod d by right-to-left binary powering, [1] for n <= 0: base is
 * buf[0], reduced, of lbase ints. The three buffers, each with room for a
 * product of two remainders, trade places; buf[1] holds the result, whose
 * stripped length is returned. logs holds deg d ints. */
static Py_ssize_t powmod_into(const Kernel *k, int *buf[3], Py_ssize_t lbase,
                              long long n, const Divisor *d, int *logs) {
    Py_ssize_t lacc = 1;
    int *base = buf[0], *acc = buf[1], *prod = buf[2], *t;
    acc[0] = 1;
    while (n > 0) {
        logs_of(k, base, lbase, logs);
        if (n & 1) {
            lacc = rem_inplace(k, prod, mul_into(k, acc, lacc, logs, lbase, prod),
                               d, NULL);
            t = acc, acc = prod, prod = t;
        }
        if ((n >>= 1) > 0) {
            lbase = rem_inplace(k, prod, mul_into(k, base, lbase, logs, lbase, prod),
                                d, NULL);
            t = base, base = prod, prod = t;
        }
    }
    buf[0] = base, buf[1] = acc, buf[2] = prod;
    return lacc;
}

/* -- Frobenius tables ------------------------------------------------------ */

/* h**q mod m, the sum of h_i * row i, into out (n ints); h (lh <= n) and out
 * are distinct. Returns the stripped length. */
static Py_ssize_t apply_into(const Kernel *k, const Table *t, const int *h,
                             Py_ssize_t lh, int *out) {
    Py_ssize_t i, j, n = t->n;
    memset(out, 0, n * sizeof(int));
    for (i = 0; i < lh; i++) {
        const int *row = t->rows + i * n;
        int l;
        if (h[i] == 0)
            continue;
        l = k->log[h[i]];
        for (j = 0; j < n; j++)
            if (row[j] >= 0)
                out[j] = f_add(k, out[j], k->exp2[l + row[j]]);
    }
    return strip(out, n);
}

/* Stores the lr coefficients of v as row i of the table, in logs. */
static void store_row(const Kernel *k, Table *t, Py_ssize_t i, const int *v,
                      Py_ssize_t lr) {
    Py_ssize_t j;
    for (j = 0; j < t->n; j++)
        t->rows[i * t->n + j] = j < lr && v[j] ? k->log[v[j]] : -1;
}

/* Fills the rows of t, whose divisor is prepared; work holds 7n ints. While
 * q < n row i is row i - 1 shifted up q places and reduced; otherwise row 1
 * is T**q, which powmod_into leaves in buf[1], and row i row i - 1 times it. */
static void build_rows(const Kernel *k, Table *t, int *work) {
    Py_ssize_t n = t->n, q = k->q, i, lr = 1, lx = 0;
    int *buf[3] = {work, work + 2 * n, work + 4 * n}, *logs = work + 6 * n, *cur = work, *swap;
    cur[0] = 1;
    store_row(k, t, 0, cur, lr);
    if (q >= n && n > 1) {
        cur[0] = 0, cur[1] = 1;
        lx = lr = powmod_into(k, buf, 2, q, &t->div, logs);
        memcpy(cur = buf[0], buf[1], lx * sizeof(int));
    }
    for (i = 1; i < n; i++) {
        if (q < n) {
            if (lr > 0) {
                memmove(cur + q, cur, lr * sizeof(int));
                memset(cur, 0, q * sizeof(int));
                lr = rem_inplace(k, cur, lr + q, &t->div, NULL);
            }
        } else if (i > 1) {
            lr = mulmod_into(k, cur, lr, buf[1], lx, &t->div, logs, buf[2]);
            swap = cur, cur = buf[2], buf[2] = swap;
        }
        store_row(k, t, i, cur, lr);
    }
}

/* -- the type ----------------------------------------------------------- */

/* A table of exactly n ints in [lo, hi) followed by room for `extra` more. */
static int *read_table(PyObject *seq, Py_ssize_t n, Py_ssize_t extra, long lo,
                       long hi, const char *name) {
    Py_ssize_t len;
    int *buf = read_ints(seq, extra, lo, hi, &len);
    if (buf != NULL && len != n) {
        PyErr_Format(PyExc_ValueError, "%s must have %zd entries", name, n);
        PyMem_Free(buf);
        return NULL;
    }
    return buf;
}

static void kernel_dealloc(Kernel *self) {
    PyMem_Free(self->exp2);
    PyMem_Free(self->log);
    PyMem_Free(self->neg);
    PyMem_Free(self->add);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds) {
    static char *kwlist[] = {"p", "e", "exp", "log", NULL};
    int p, e, q, w, a, b;
    long long pe = 1;
    PyObject *exp, *log;
    Kernel *self;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iiOO:FieldKernel", kwlist,
                                     &p, &e, &exp, &log))
        return NULL;
    for (a = 0; p >= 2 && a < e && pe <= (1 << 24); a++)
        pe *= p;
    if (p < 2 || e < 1 || pe > (1 << 24)) {
        PyErr_SetString(PyExc_ValueError, "need p >= 2, e >= 1 and p**e <= 2**24");
        return NULL;
    }
    if ((self = (Kernel *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    self->p = p;
    self->e = e;
    self->q = q = (int)pe;
    self->w = w = q - 1;
    if ((self->exp2 = read_table(exp, w, w, 1, q, "exp")) == NULL
        || (self->log = read_table(log, q, 0, -1, w, "log")) == NULL
        || (self->neg = new_ints(q)) == NULL
        || (q <= 256 && (self->add = new_ints(q * q)) == NULL)) {
        Py_DECREF(self);
        return NULL;
    }
    memcpy(self->exp2 + w, self->exp2, w * sizeof(int));
    /* the lowest base-p digit negates mod p, and the higher digits take the
     * entry already filled for a / p */
    self->neg[0] = 0;
    for (a = 1; a < q; a++)
        self->neg[a] = (p - a % p) % p + p * self->neg[a / p];
    for (a = 0; self->add != NULL && a < q; a++)
        for (b = 0; b < q; b++)
            self->add[a * q + b] = add_digits(self, a, b);
    for (a = 1; a < q; a++)
        if (self->log[a] < 0) {
            PyErr_Format(PyExc_ValueError, "log[%d] is negative", a);
            Py_CLEAR(self);
            break;
        }
    return (PyObject *)self;
}

/* -- scalar methods ------------------------------------------------------ */

#define SCALAR_METHOD(NAME, NARGS, EXPR)                                     \
    static PyObject *k_##NAME(Kernel *k, PyObject *const *args,              \
                              Py_ssize_t nargs) {                            \
        int v[2] = {0, 0};                                                   \
        if (check_nargs(#NAME, nargs, NARGS) < 0                             \
            || read_int(args[0], 0, k->q, &v[0]) < 0                         \
            || (NARGS == 2 && read_int(args[1], 0, k->q, &v[1]) < 0))        \
            return NULL;                                                     \
        return PyLong_FromLong(EXPR);                                        \
    }

SCALAR_METHOD(fadd, 2, f_add(k, v[0], v[1]))
SCALAR_METHOD(fneg, 1, k->neg[v[0]])
SCALAR_METHOD(fsub, 2, f_add(k, v[0], k->neg[v[1]]))
SCALAR_METHOD(fmul, 2, f_mul(k, v[0], v[1]))

static PyObject *k_finv(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    int a;
    if (check_nargs("finv", nargs, 1) < 0 || read_int(args[0], 0, k->q, &a) < 0)
        return NULL;
    if (a == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "inverse of zero");
        return NULL;
    }
    return PyLong_FromLong(f_inv(k, a));
}

/* -- polynomial methods ---------------------------------------------------- */

/* f + g, or f - g when negate is set. */
static PyObject *add_or_sub(Kernel *k, const char *name, PyObject *const *args,
                            Py_ssize_t nargs, int negate) {
    Py_ssize_t lf, lg, i;
    int *f, *g, *lo, *hi;
    PyObject *out = NULL;
    if (check_nargs(name, nargs, 2) < 0
        || (f = read_poly(k, args[0], 0, &lf)) == NULL)
        return NULL;
    if ((g = read_poly(k, args[1], 0, &lg)) != NULL) {
        for (i = 0; negate && i < lg; i++)
            g[i] = k->neg[g[i]];
        hi = lf >= lg ? f : g;
        lo = lf >= lg ? g : f;
        for (i = 0; i < (lf < lg ? lf : lg); i++)
            hi[i] = f_add(k, hi[i], lo[i]);
        out = to_list(hi, strip(hi, lf > lg ? lf : lg));
    }
    PyMem_Free(f);
    PyMem_Free(g);
    return out;
}

#define ADD_METHOD(NAME, NEGATE)                                             \
    static PyObject *k_##NAME(Kernel *k, PyObject *const *args,              \
                              Py_ssize_t nargs) {                            \
        return add_or_sub(k, #NAME, args, nargs, NEGATE);                    \
    }

ADD_METHOD(padd, 0)
ADD_METHOD(psub, 1)

/* c * f as a list; f's buffer is overwritten. */
static PyObject *scale_to_list(const Kernel *k, int *f, Py_ssize_t lf, int c) {
    Py_ssize_t i;
    if (c == 0)
        return PyList_New(0);
    for (i = 0; i < lf; i++)
        f[i] = f_mul(k, f[i], c);
    return to_list(f, lf);
}

/* f made monic, as a list: f itself when it is 0 or already monic. An
 * unstripped f with a zero top raises, as finv(0) does. */
static PyObject *monic_to_list(const Kernel *k, int *f, Py_ssize_t lf) {
    if (lf == 0 || f[lf - 1] == 1)
        return to_list(f, lf);
    if (f[lf - 1] == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "inverse of zero");
        return NULL;
    }
    return scale_to_list(k, f, lf, f_inv(k, f[lf - 1]));
}

static PyObject *k_pscale(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf;
    int c, *f;
    PyObject *out;
    if (check_nargs("pscale", nargs, 2) < 0 || read_int(args[1], 0, k->q, &c) < 0)
        return NULL;
    if (c == 0)
        return PyList_New(0);
    if ((f = read_poly(k, args[0], 0, &lf)) == NULL)
        return NULL;
    out = scale_to_list(k, f, lf, c);
    PyMem_Free(f);
    return out;
}

static PyObject *k_pmonic(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf;
    int *f;
    PyObject *out;
    if (check_nargs("pmonic", nargs, 1) < 0
        || (f = read_poly(k, args[0], 0, &lf)) == NULL)
        return NULL;
    out = monic_to_list(k, f, lf);
    PyMem_Free(f);
    return out;
}

static PyObject *k_pmul(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf, lg;
    int *f, *g, *out = NULL;
    PyObject *res = NULL;
    if (check_nargs("pmul", nargs, 2) < 0
        || (f = read_poly(k, args[0], 0, &lf)) == NULL)
        return NULL;
    if ((g = read_poly(k, args[1], 0, &lg)) != NULL
        && (out = new_ints(lf + lg)) != NULL) {
        logs_of(k, g, lg, g);
        res = to_list(out, mul_into(k, f, lf, g, lg, out));
    }
    PyMem_Free(f);
    PyMem_Free(g);
    PyMem_Free(out);
    return res;
}

static PyObject *k_ptable(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lm, n;
    int *m, *work = NULL;
    Table *t;
    if (check_nargs("ptable", nargs, 1) < 0
        || (m = read_poly(k, args[0], 0, &lm)) == NULL)
        return NULL;
    if ((lm = strip(m, lm)) < 2) {
        PyErr_SetString(PyExc_ZeroDivisionError, "table modulus must be nonconstant");
        PyMem_Free(m);
        return NULL;
    }
    if ((t = PyObject_New(Table, &TableType)) == NULL) {
        PyMem_Free(m);
        return NULL;
    }
    Py_INCREF(k);
    t->owner = k;
    t->n = n = lm - 1;
    t->mod = m;
    t->room = NULL;
    if ((t->rows = new_ints(n * n)) == NULL || (t->room = new_ints(2 * n)) == NULL
        || (work = new_ints(7 * n)) == NULL) {
        Py_DECREF(t);
        return NULL;
    }
    prepare_divisor(k, m, lm, t->room, &t->div);
    build_rows(k, t, work);
    PyMem_Free(work);
    return (PyObject *)t;
}

/* obj as a table, if this kernel built it; NULL with TypeError otherwise. */
static Table *frobenius_table_arg(Kernel *k, PyObject *obj) {
    if (!PyObject_TypeCheck(obj, &TableType) || ((Table *)obj)->owner != k) {
        PyErr_SetString(PyExc_TypeError, "expected a FrobeniusTable built by this kernel");
        return NULL;
    }
    return (Table *)obj;
}

/* The table args[0], which this kernel built, and a new buffer holding h =
 * args[1], of at most n coefficients, with room for n more ints; NULL with
 * an exception set on failure. */
static int *read_frobenius_args(Kernel *k, PyObject *const *args, Table **t,
                                Py_ssize_t *lh) {
    int *h;
    if ((*t = frobenius_table_arg(k, args[0])) == NULL)
        return NULL;
    if ((h = read_poly(k, args[1], (*t)->n, lh)) != NULL && *lh > (*t)->n) {
        PyErr_Format(PyExc_ValueError,
                     "h needs at most %zd coefficients for a table of %zd rows",
                     (*t)->n, (*t)->n);
        PyMem_Free(h);
        return NULL;
    }
    return h;
}

static PyObject *k_papply(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lh;
    int *h;
    Table *t;
    PyObject *res = NULL;
    if (check_nargs("papply", nargs, 2) < 0
        || (h = read_frobenius_args(k, args, &t, &lh)) == NULL)
        return NULL;
    /* h has room for n ints past its own: the result goes there */
    res = to_list(h + lh, apply_into(k, t, h, lh, h + lh));
    PyMem_Free(h);
    return res;
}

/* N_k = h**(1 + q + ... + q**(k-1)) along the bits of d from the top:
 * N_2k = N_k**(q**k) * N_k and N_(k+1) = N_k**q * h. */
static PyObject *k_pnorm(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lh, la, ls, n, d, kk = 1, i;
    int *h, *work, *acc, *prod, *sh, *tmp, *logs, *swap, bit;
    Table *t;
    PyObject *res = NULL;
    if (check_nargs("pnorm", nargs, 3) < 0
        || (h = read_frobenius_args(k, args, &t, &lh)) == NULL)
        return NULL;
    n = t->n;
    if ((d = PyLong_AsSsize_t(args[2])) < 1) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError, "pnorm needs d >= 1, got %zd", d);
        PyMem_Free(h);
        return NULL;
    }
    /* acc and prod trade places, each with room for a product */
    if ((work = new_ints(7 * n)) != NULL) {
        acc = work, prod = work + 2 * n, sh = work + 4 * n, tmp = work + 5 * n;
        logs = work + 6 * n;
        la = strip(h, lh);
        memcpy(acc, h, la * sizeof(int));
        for (bit = 8 * (int)sizeof(d) - 2; !((d >> bit) & 1); bit--)
            ;
        while (--bit >= 0) {
            memcpy(sh, acc, la * sizeof(int));
            ls = la;
            for (i = 0; i < kk; i++) {
                ls = apply_into(k, t, sh, ls, tmp);
                swap = sh, sh = tmp, tmp = swap;
            }
            la = mulmod_into(k, sh, ls, acc, la, &t->div, logs, prod);
            swap = acc, acc = prod, prod = swap;
            kk *= 2;
            if ((d >> bit) & 1) {
                ls = apply_into(k, t, acc, la, sh);
                la = mulmod_into(k, sh, ls, h, strip(h, lh), &t->div, logs, prod);
                swap = acc, acc = prod, prod = swap;
                kk += 1;
            }
        }
        res = to_list(acc, la);
        PyMem_Free(work);
    }
    PyMem_Free(h);
    return res;
}

/* Appends the pair (v as a list, deg) to out; -1 on failure. */
static int append_part(PyObject *out, const int *v, Py_ssize_t lv, Py_ssize_t deg) {
    PyObject *part = to_list(v, lv), *pair;
    int status = -1;
    if (part != NULL && (pair = Py_BuildValue("(On)", part, deg)) != NULL) {
        status = PyList_Append(out, pair);
        Py_DECREF(pair);
    }
    Py_XDECREF(part);
    return status;
}

/* Step d holds h = T**(q**d) mod the f left after the parts found so far
 * and takes gcd(f, h - T). Each step applies the first f's table: once f has
 * shrunk, the result is reduced mod f. */
static PyObject *k_pwalk(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf, lh = 0, la, lb, lg, n, d = 0, j;
    int first, *work, *f, *h, *tmp, *a, *b, *quot, *room, *froom, *groom, *swap, inv;
    Table *t;
    Divisor fdiv, gdiv;
    PyObject *out;
    if (check_nargs("pwalk", nargs, 2) < 0 || (t = frobenius_table_arg(k, args[0])) == NULL)
        return NULL;
    n = t->n;
    if ((first = PyObject_IsTrue(args[1])) < 0 || (work = new_ints(12 * (n + 1))) == NULL)
        return NULL;
    if ((out = PyList_New(0)) == NULL) {
        PyMem_Free(work);
        return NULL;
    }
    f = work, h = work + (n + 1), tmp = work + 2 * (n + 1), a = work + 3 * (n + 1);
    b = work + 4 * (n + 1), quot = work + 5 * (n + 1), room = work + 6 * (n + 1);
    froom = work + 8 * (n + 1), groom = work + 10 * (n + 1);
    lf = n + 1;
    inv = f_inv(k, t->mod[n]);
    for (j = 0; j < lf; j++)
        f[j] = f_mul(k, t->mod[j], inv);
    if (n > 1)
        h[0] = 0, h[1] = 1, lh = 2;
    while (lf - 1 >= 2 * (d + 1)) {
        d++;
        lh = apply_into(k, t, h, lh, tmp);
        swap = h, h = tmp, tmp = swap;
        if (lf - 1 < n)
            lh = rem_inplace(k, h, lh, &fdiv, NULL);
        memcpy(a, f, lf * sizeof(int));
        memcpy(b, h, lh * sizeof(int));
        for (lb = lh; lb < 2; lb++)
            b[lb] = 0;
        b[1] = f_add(k, b[1], k->neg[1]); /* h - T */
        la = lf;
        lg = gcd_inplace(k, &a, la, &b, strip(b, lb), room);
        if (lg < 2)
            continue;
        inv = f_inv(k, a[lg - 1]);
        for (j = 0; j < lg; j++)
            a[j] = f_mul(k, a[j], inv);
        if (append_part(out, a, lg, d) < 0)
            goto fail;
        if (first)
            goto done;
        /* f = f / g, g = a monic: the quotient goes to quot */
        prepare_divisor(k, a, lg, groom, &gdiv);
        rem_inplace(k, f, lf, &gdiv, quot);
        lf -= lg - 1;
        memcpy(f, quot, lf * sizeof(int));
        if (lf > 1)
            prepare_divisor(k, f, lf, froom, &fdiv);
    }
    if (lf > 1 && append_part(out, f, lf, lf - 1) < 0)
        goto fail;
done:
    PyMem_Free(work);
    return out;
fail:
    PyMem_Free(work);
    Py_DECREF(out);
    return NULL;
}

/* Reads f and g for pdivrem and prem and prepares g as the divisor in
 * *room. The caller frees f, g and room, whether or not this fails. */
static int read_division(Kernel *k, const char *name, PyObject *const *args,
                         Py_ssize_t nargs, int **f, Py_ssize_t *lf, int **g,
                         int **room, Divisor *d) {
    Py_ssize_t lg;
    *f = *g = *room = NULL;
    if (check_nargs(name, nargs, 2) < 0
        || (*g = read_poly(k, args[1], 0, &lg)) == NULL)
        return -1;
    if (lg == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "polynomial division by zero");
        return -1;
    }
    if ((*f = read_poly(k, args[0], 0, lf)) == NULL
        || (*room = new_ints(2 * lg)) == NULL)
        return -1;
    prepare_divisor(k, *g, lg, *room, d);
    return 0;
}

static PyObject *k_pdivrem(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf, lq;
    int *f, *g, *room, *quot = NULL;
    Divisor d;
    PyObject *q = NULL, *r = NULL, *res = NULL;
    if (read_division(k, "pdivrem", args, nargs, &f, &lf, &g, &room, &d) == 0) {
        lq = lf > d.dg ? lf - d.dg : 0;
        if ((quot = new_ints(lq)) != NULL
            && (r = to_list(f, rem_inplace(k, f, lf, &d, quot))) != NULL
            && (q = to_list(quot, strip(quot, lq))) != NULL)
            res = PyTuple_Pack(2, q, r);
    }
    Py_XDECREF(q);
    Py_XDECREF(r);
    PyMem_Free(f);
    PyMem_Free(g);
    PyMem_Free(room);
    PyMem_Free(quot);
    return res;
}

static PyObject *k_prem(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf;
    int *f, *g, *room;
    Divisor d;
    PyObject *res = NULL;
    if (read_division(k, "prem", args, nargs, &f, &lf, &g, &room, &d) == 0)
        res = to_list(f, rem_inplace(k, f, lf, &d, NULL));
    PyMem_Free(f);
    PyMem_Free(g);
    PyMem_Free(room);
    return res;
}

static PyObject *k_pgcd(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t la, lb;
    int *a, *b = NULL, *room = NULL;
    PyObject *res = NULL;
    if (check_nargs("pgcd", nargs, 2) < 0
        || (a = read_poly(k, args[0], 0, &la)) == NULL)
        return NULL;
    if ((b = read_poly(k, args[1], 0, &lb)) != NULL
        && (room = new_ints(2 * (la > lb ? la : lb))) != NULL) {
        la = gcd_inplace(k, &a, la, &b, lb, room);
        res = monic_to_list(k, a, la);
    }
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(room);
    return res;
}

/* f^n mod m by powmod_into, n a long long; [1] for n <= 0. */
static PyObject *k_ppowmod(Kernel *k, PyObject *const *args, Py_ssize_t nargs) {
    Py_ssize_t lf, lm, lacc, cap;
    int *m, *f = NULL, *work = NULL, *buf[3];
    long long n;
    Divisor d;
    PyObject *res = NULL;
    if (check_nargs("ppowmod", nargs, 3) < 0
        || (m = read_poly(k, args[2], 0, &lm)) == NULL)
        return NULL;
    if (lm < 2) {
        PyErr_SetString(PyExc_ZeroDivisionError,
                        "powmod modulus must be nonconstant");
        goto done;
    }
    cap = 2 * lm - 1; /* more than a product of two remainders needs */
    if ((f = read_poly(k, args[0], cap, &lf)) == NULL
        || ((n = PyLong_AsLongLong(args[1])) == -1 && PyErr_Occurred())
        || (work = new_ints(5 * cap)) == NULL)
        goto done;
    /* work holds acc, prod, logs and then the divisor's 2 (lm - 1) ints */
    buf[0] = f, buf[1] = work, buf[2] = work + cap;
    prepare_divisor(k, m, lm, work + 3 * cap, &d);
    lacc = powmod_into(k, buf, rem_inplace(k, f, lf, &d, NULL), n, &d, work + 2 * cap);
    res = to_list(buf[1], lacc);
done:
    PyMem_Free(m);
    PyMem_Free(f);
    PyMem_Free(work);
    return res;
}

/* -- module --------------------------------------------------------------- */

#define METHOD(NAME) \
    {#NAME, (PyCFunction)(void (*)(void))k_##NAME, METH_FASTCALL, NULL}

static PyMethodDef kernel_methods[] = {
    METHOD(fadd), METHOD(fneg), METHOD(fsub), METHOD(fmul), METHOD(finv),
    METHOD(padd), METHOD(psub), METHOD(pscale), METHOD(pmul), METHOD(pdivrem),
    METHOD(prem), METHOD(pmonic), METHOD(pgcd), METHOD(ppowmod), METHOD(ptable),
    METHOD(papply), METHOD(pnorm), METHOD(pwalk),
    {NULL, NULL, 0, NULL},
};

static PyMemberDef kernel_members[] = {
    {"p", T_INT, offsetof(Kernel, p), READONLY, NULL},
    {"e", T_INT, offsetof(Kernel, e), READONLY, NULL},
    {"q", T_INT, offsetof(Kernel, q), READONLY, NULL},
    {"w", T_INT, offsetof(Kernel, w), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "qcff._kernels._core.FieldKernel",
    .tp_doc = "Arithmetic engine bound to one field's precomputed tables.",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = kernel_new,
    .tp_dealloc = (destructor)kernel_dealloc,
    .tp_methods = kernel_methods,
    .tp_members = kernel_members,
};

static void table_dealloc(Table *t) {
    Py_XDECREF(t->owner);
    PyMem_Free(t->mod);
    PyMem_Free(t->rows);
    PyMem_Free(t->room);
    PyObject_Free(t);
}

static Py_ssize_t table_length(Table *t) {
    return t->n;
}

static PySequenceMethods table_as_sequence = {
    .sq_length = (lenfunc)table_length,
};

static PyTypeObject TableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "qcff._kernels._core.FrobeniusTable",
    .tp_doc = "The Frobenius table of one modulus, built by FieldKernel.ptable.",
    .tp_basicsize = sizeof(Table),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_dealloc = (destructor)table_dealloc,
    .tp_as_sequence = &table_as_sequence,
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "qcff._kernels._core",
    .m_doc = "Compiled arithmetic kernel; same interface as qcff._kernels.pure.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__core(void) {
    PyObject *mod = PyModule_Create(&core_module);
    if (mod != NULL && (PyModule_AddType(mod, &KernelType) < 0
                        || PyModule_AddType(mod, &TableType) < 0))
        Py_CLEAR(mod);
    return mod;
}
