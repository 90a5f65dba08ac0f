#include "core/reference.hh"

#include <algorithm>

namespace lego
{

TensorSet
makeInputs(const Workload &w, unsigned seed)
{
    TensorSet ts;
    for (size_t i = 0; i < w.tensors.size(); i++) {
        TensorData td(w.tensorShape(int(i)));
        if (!w.tensors[i].isOutput)
            td.fillPattern(seed + unsigned(i) * 7919u);
        ts.tensors.push_back(std::move(td));
    }
    return ts;
}

void
applyBody(const Workload &w, TensorSet &ts, const IntVec &iter)
{
    const int out = w.outputTensor();
    std::vector<int> in = w.inputTensors();
    IntVec yidx = w.mappings[out].apply(iter);
    Int &y = ts[out].at(yidx);

    auto operand = [&](int k) {
        int t = in[size_t(k)];
        return ts[t].at(w.mappings[t].apply(iter));
    };

    switch (w.op) {
      case OpKind::Mac:
        y += operand(0) * operand(1);
        break;
      case OpKind::MulMulAdd:
        y += operand(0) * operand(1) * operand(2);
        break;
      case OpKind::MulShiftAdd:
        // Shift amounts are kept small and non-negative by masking.
        // The product may be negative, so scale by 2^shift with a
        // multiply: same two's-complement result as the hardware
        // shifter, without the UB of left-shifting a negative value.
        y += (operand(0) * operand(1)) * (Int(1) << (operand(2) & 0x3));
        break;
      case OpKind::MaxReduce:
        y = std::max(y, operand(0));
        break;
    }
}

namespace
{

/**
 * One tensor access folded into a flat affine row: the row-major
 * offset of the element read at `iter` is base + sum_d coef[d] iter[d].
 */
struct FlatRow
{
    Int base = 0;
    IntVec coef;
};

/**
 * Fold tensor `t`'s data mapping and row-major strides into one flat
 * row, after checking that every index it produces over the box
 * [0, ext) lies inside the tensor. Each index coordinate is affine in
 * the iteration point, so it takes its extrema at corners of the box:
 * checking the minimising and maximising corner of every coordinate
 * covers all points, and panics exactly when some point would.
 */
FlatRow
flatRow(const Workload &w, const TensorData &td, int t, const IntVec &ext)
{
    const DataMapping &dm = w.mappings.at(size_t(t));
    const IntVec &shape = td.shape();
    const int nd = int(ext.size());
    if (dm.m.rows() != int(shape.size()))
        panic("TensorData: rank mismatch");
    if (dm.m.cols() != nd)
        panic("runReference: mapping of tensor " +
              w.tensors[size_t(t)].name + " does not match the domain");
    FlatRow row;
    row.coef.assign(size_t(nd), 0);
    Int stride = 1;
    for (int r = int(shape.size()) - 1; r >= 0; r--) {
        const Int bias = dm.bias.empty() ? 0 : dm.bias.at(size_t(r));
        IntVec lo(size_t(nd), 0), hi(size_t(nd), 0);
        for (int d = 0; d < nd; d++) {
            const Int c = dm.m.at(r, d);
            (c < 0 ? lo : hi)[size_t(d)] = ext[size_t(d)] - 1;
            row.coef[size_t(d)] += c * stride;
        }
        for (const IntVec &corner : {lo, hi}) {
            IntVec idx = dm.apply(corner);
            if (idx[size_t(r)] < 0 || idx[size_t(r)] >= shape[size_t(r)])
                panic("TensorData: index out of range " + toString(idx) +
                      " of tensor " + w.tensors[size_t(t)].name +
                      " at iteration " + toString(corner));
        }
        row.base += bias * stride;
        stride *= shape[size_t(r)];
    }
    return row;
}

} // namespace

void
runReference(const Workload &w, TensorSet &ts)
{
    const int nd = int(w.iterSizes.size());
    // The nest runs as a do-while: a zero extent still visits 0.
    IntVec ext = w.iterSizes;
    for (int d = 0; d < nd; d++)
        ext[size_t(d)] = std::max<Int>(ext[size_t(d)], 1);

    // Accesses: the output first, then the inputs in operand order.
    std::vector<int> tensors{w.outputTensor()};
    for (int t : w.inputTensors())
        tensors.push_back(t);
    const size_t na = tensors.size();
    std::vector<Int *> data(na);
    std::vector<Int> off(na);
    // carry[a * nd + d]: change of access a's offset when dim d steps
    // and every inner dim wraps back to 0.
    std::vector<Int> carry(na * size_t(nd));
    for (size_t a = 0; a < na; a++) {
        TensorData &td = ts[tensors[a]];
        FlatRow row = flatRow(w, td, tensors[a], ext);
        data[a] = &td.flat(0);
        off[a] = row.base;
        Int wrapped = 0;
        for (int d = nd - 1; d >= 0; d--) {
            carry[a * size_t(nd) + size_t(d)] = row.coef[size_t(d)] - wrapped;
            wrapped += row.coef[size_t(d)] * (ext[size_t(d)] - 1);
        }
    }

    auto walk = [&](auto body) {
        IntVec iter(size_t(nd), 0);
        for (;;) {
            body();
            int pos = nd - 1;
            while (pos >= 0 && ++iter[size_t(pos)] == ext[size_t(pos)])
                iter[size_t(pos--)] = 0;
            if (pos < 0)
                return;
            const Int *step = &carry[size_t(pos)];
            for (size_t a = 0; a < na; a++)
                off[a] += step[a * size_t(nd)];
        }
    };
    auto x = [&](size_t k) { return data[k + 1][off[k + 1]]; };
    Int *y = data[0];
    switch (w.op) {
      case OpKind::Mac:
        walk([&] { y[off[0]] += x(0) * x(1); });
        break;
      case OpKind::MulMulAdd:
        walk([&] { y[off[0]] += x(0) * x(1) * x(2); });
        break;
      case OpKind::MulShiftAdd:
        // Same scaling as applyBody: a multiply, not a left shift.
        walk([&] {
            y[off[0]] += (x(0) * x(1)) * (Int(1) << (x(2) & 0x3));
        });
        break;
      case OpKind::MaxReduce:
        walk([&] { y[off[0]] = std::max(y[off[0]], x(0)); });
        break;
    }
}

namespace
{

/** Iterate a mixed-radix counter; returns false after the last state. */
bool
advance(IntVec &v, const IntVec &radix)
{
    int pos = int(v.size()) - 1;
    while (pos >= 0) {
        if (++v[pos] < radix[pos])
            return true;
        v[pos] = 0;
        pos--;
    }
    return false;
}

} // namespace

void
runMapped(const Workload &w, const DataflowMapping &m, TensorSet &ts)
{
    IntVec t(m.tDims(), 0);
    do {
        IntVec s(m.sDims(), 0);
        do {
            applyBody(w, ts, m.iterAt(t, s));
        } while (advance(s, m.rS));
    } while (advance(t, m.rT));
}

bool
mappingIsBijective(const Workload &w, const DataflowMapping &m)
{
    if (m.timeSteps() * m.numFUs() != w.iterationCount())
        return false;
    std::vector<char> seen(size_t(w.iterationCount()), 0);
    IntVec t(m.tDims(), 0);
    do {
        IntVec s(m.sDims(), 0);
        do {
            IntVec iter = m.iterAt(t, s);
            Int flat = 0;
            for (size_t d = 0; d < iter.size(); d++) {
                if (iter[d] < 0 || iter[d] >= w.iterSizes[d])
                    return false;
                flat = flat * w.iterSizes[d] + iter[d];
            }
            if (seen[size_t(flat)])
                return false;
            seen[size_t(flat)] = 1;
        } while (advance(s, m.rS));
    } while (advance(t, m.rT));
    for (char c : seen)
        if (!c)
            return false;
    return true;
}

} // namespace lego
