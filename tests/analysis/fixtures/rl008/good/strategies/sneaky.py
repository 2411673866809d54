"""RL008 good fixture: strategy speaking only the sanctioned surface."""


class PoliteStrategy:
    def advance(self, client, trace, start, stop):
        inside, ops, _block = client.bitmap.walk(trace.xs[start],
                                                 trace.ys[start])
        self._charge_probe(ops, checks=1)  # own inherited helper: fine
        reply = self._send_report(client, trace, start)
        self.session.send(reply, trace.times[start])  # public surface
        return self.__class__.__name__  # dunders are fine

    def _charge_probe(self, ops, checks):
        pass

    def _send_report(self, client, trace, index):
        return None
