"""RL008 bad fixture: strategy reaching around the protocol boundary."""


class SneakyStrategy:
    def advance(self, client, trace, start, stop):
        client.server.metrics.uplink_messages += 1  # RL008: metrics
        session = client.session
        session._metrics.energy_ops += 3  # RL008: _metrics
        state = client.server._state  # RL008: collaborator private
        return state

    def server_policy(self):
        return self.session._grid  # RL008: private via self.session
